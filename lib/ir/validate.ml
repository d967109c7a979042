module Diag = Kfuse_util.Diag

type input = {
  name : string;
  width : int;
  height : int;
  channels : int;
  inputs : string list;
  params : (string * float) list;
  kernels : Kernel.t list;
}

let of_pipeline (p : Pipeline.t) =
  {
    name = p.Pipeline.name;
    width = p.Pipeline.width;
    height = p.Pipeline.height;
    channels = p.Pipeline.channels;
    inputs = p.Pipeline.inputs;
    params = p.Pipeline.params;
    kernels = Array.to_list p.Pipeline.kernels;
  }

(* 2^31 - 1: the most elements (width x height x channels) an iteration
   space may have, since generated C indexes images with [int]. *)
let max_elements = 0x7fff_ffff

let check_space t =
  let bad what v =
    Diag.errorf Diag.Empty_iteration_space
      "pipeline %S: empty iteration space (%s = %d, must be positive)" t.name what v
  in
  let nonpositive =
    (if t.width <= 0 then [ bad "width" t.width ] else [])
    @ (if t.height <= 0 then [ bad "height" t.height ] else [])
    @ if t.channels <= 0 then [ bad "channels" t.channels ] else []
  in
  (* Divide rather than multiply: the product itself may overflow. *)
  if nonpositive = []
     && (t.width > max_elements / t.height
        || t.width * t.height > max_elements / t.channels)
  then
    [
      Diag.errorf Diag.Empty_iteration_space
        "pipeline %S: iteration space %dx%dx%d has more than %d elements, the most \
         generated code can index"
        t.name t.width t.height t.channels max_elements;
    ]
  else nonpositive

(* Duplicate identifiers: kernel names must be unique and disjoint from
   input names; parameters share the reference namespace with images. *)
let check_names t =
  let seen = Hashtbl.create 16 in
  let diags = ref [] in
  let declare kind name =
    (match Hashtbl.find_opt seen name with
    | Some prior ->
      diags :=
        Diag.errorf Diag.Duplicate_name "pipeline %S: %s %S clashes with %s of the same name"
          t.name kind name prior
        :: !diags
    | None -> ());
    Hashtbl.replace seen name kind
  in
  List.iter (declare "input") t.inputs;
  List.iter (fun (k : Kernel.t) -> declare "kernel" k.Kernel.name) t.kernels;
  List.iter (fun (p, _) -> declare "parameter" p) t.params;
  List.rev !diags

let check_refs t =
  let produced = Hashtbl.create 16 in
  List.iter (fun i -> Hashtbl.replace produced i ()) t.inputs;
  List.iter (fun (k : Kernel.t) -> Hashtbl.replace produced k.Kernel.name ()) t.kernels;
  List.concat_map
    (fun (k : Kernel.t) ->
      List.filter_map
        (fun img ->
          if Hashtbl.mem produced img then None
          else
            Some
              (Diag.errorf Diag.Dangling_ref
                 "pipeline %S: kernel %S reads image %S, which no input or kernel produces"
                 t.name k.Kernel.name img))
        k.Kernel.inputs)
    t.kernels

let check_params t =
  List.concat_map
    (fun (k : Kernel.t) ->
      List.filter_map
        (fun p ->
          if List.mem_assoc p t.params then None
          else
            Some
              (Diag.errorf Diag.Unbound_param
                 "pipeline %S: kernel %S uses parameter %S with no declared default" t.name
                 k.Kernel.name p))
        (Expr.params
           (match k.Kernel.op with Kernel.Map e -> e | Kernel.Reduce { arg; _ } -> arg)))
    t.kernels

(* Cycle detection over the kernel-name dependence graph with a 3-color
   DFS; [Pipeline.create] would also refuse, but here we report the
   actual kernel path as a diagnostic instead of raising. *)
let check_cycles t =
  let kernels = Array.of_list t.kernels in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i (k : Kernel.t) -> Hashtbl.replace index k.Kernel.name i) kernels;
  let deps i =
    List.filter_map (fun img -> Hashtbl.find_opt index img) kernels.(i).Kernel.inputs
  in
  let n = Array.length kernels in
  let color = Array.make n `White in
  let cycle = ref None in
  let rec dfs path i =
    match color.(i) with
    | `Black -> ()
    | `Gray ->
      if !cycle = None then begin
        let rec cut = function
          | [] -> []
          | j :: rest -> if j = i then [ j ] else j :: cut rest
        in
        cycle := Some (List.rev (i :: cut path))
      end
    | `White ->
      color.(i) <- `Gray;
      List.iter (dfs (i :: path)) (deps i);
      color.(i) <- `Black
  in
  for i = 0 to n - 1 do
    dfs [] i
  done;
  match !cycle with
  | None -> []
  | Some path ->
    [
      Diag.errorf Diag.Cycle "pipeline %S: dependence cycle through kernels %s" t.name
        (String.concat " -> "
           (List.map (fun i -> kernels.(i).Kernel.name) path));
    ]

let check_headers t =
  let index = Hashtbl.create 16 in
  List.iter (fun (k : Kernel.t) -> Hashtbl.replace index k.Kernel.name k) t.kernels;
  List.concat_map
    (fun (k : Kernel.t) ->
      List.filter_map
        (fun img ->
          match Hashtbl.find_opt index img with
          | Some producer when Kernel.is_global producer ->
            Some
              (Diag.errorf Diag.Global_consumed
                 "pipeline %S: kernel %S consumes the 1x1 output of global kernel %S \
                  (not header-compatible with the %dx%d iteration space)"
                 t.name k.Kernel.name img t.width t.height)
          | _ -> None)
        k.Kernel.inputs)
    t.kernels

let check_masks t =
  if t.width <= 0 || t.height <= 0 then []
  else
    List.filter_map
      (fun (k : Kernel.t) ->
        let side = Kernel.mask_width k in
        if side > t.width || side > t.height then
          Some
            (Diag.errorf Diag.Mask_too_large
               "pipeline %S: kernel %S has a %dx%d stencil window, larger than the %dx%d \
                iteration space"
               t.name k.Kernel.name side side t.width t.height)
        else None)
      t.kernels

let check t =
  let structural = check_space t @ check_names t @ check_refs t @ check_params t in
  let empty =
    if t.kernels = [] then
      [
        Diag.warningf Diag.Empty_pipeline "pipeline %S has no kernels: nothing to fuse"
          t.name;
      ]
    else []
  in
  (* Cycle/header checks assume identifiable kernels; skip them when the
     naming or reference structure is already broken so one root cause
     is not reported twice. *)
  let graph_checks =
    if structural = [] then check_cycles t @ check_headers t @ check_masks t else []
  in
  structural @ empty @ graph_checks

let errors t = List.filter Diag.is_error (check t)

let pipeline p = check (of_pipeline p)

let result p = match List.filter Diag.is_error (pipeline p) with [] -> Ok p | d :: _ -> Error d

let build t =
  match errors t with
  | d :: _ -> Error d
  | [] -> (
    match
      Pipeline.create ~name:t.name ~width:t.width ~height:t.height ~channels:t.channels
        ~params:t.params ~inputs:t.inputs t.kernels
    with
    | p -> Ok p
    | exception Invalid_argument msg -> Error (Diag.v Diag.Internal_error msg))
