module Iset = Kfuse_util.Iset
module Digraph = Kfuse_graph.Digraph
module Topo = Kfuse_graph.Topo
module Names = Map.Make (String)

type t = {
  name : string;
  width : int;
  height : int;
  channels : int;
  inputs : string list;
  params : (string * float) list;
  kernels : Kernel.t array;
  dag : Digraph.t;
  index : int Names.t;
}

let fail fmt = Printf.ksprintf invalid_arg fmt

(* [find name] is the index of the kernel called [name]. *)
let build_dag find kernels =
  let g = Array.to_list kernels |> List.mapi (fun i _ -> i) |> List.fold_left Digraph.add_vertex Digraph.empty in
  Array.to_list kernels
  |> List.mapi (fun j (k : Kernel.t) ->
         List.filter_map (fun img -> Option.map (fun i -> (i, j)) (find img)) k.inputs)
  |> List.concat
  |> List.fold_left (fun g (i, j) -> Digraph.add_edge g i j) g

let create ~name ~width ~height ?(channels = 1) ?(params = []) ~inputs kernels =
  if width <= 0 || height <= 0 then fail "Pipeline.create(%s): nonpositive extent" name;
  if channels <= 0 then fail "Pipeline.create(%s): nonpositive channel count" name;
  let seen = Hashtbl.create 16 in
  List.iter
    (fun i ->
      if Hashtbl.mem seen i then fail "Pipeline.create(%s): duplicate input %S" name i;
      Hashtbl.replace seen i `Input)
    inputs;
  List.iter
    (fun (k : Kernel.t) ->
      if Hashtbl.mem seen k.name then
        fail "Pipeline.create(%s): kernel name %S clashes with an input or kernel" name k.name;
      Hashtbl.replace seen k.name `Kernel)
    kernels;
  (* Parameters share the reference namespace with images in the DSL, so
     collisions would make references ambiguous. *)
  List.iter
    (fun (pname, _) ->
      if Hashtbl.mem seen pname then
        fail "Pipeline.create(%s): parameter %S clashes with an image name" name pname)
    params;
  List.iter
    (fun (k : Kernel.t) ->
      List.iter
        (fun img ->
          if not (Hashtbl.mem seen img) then
            fail "Pipeline.create(%s): kernel %S reads unknown image %S" name k.name img)
        k.inputs;
      List.iter
        (fun p ->
          if not (List.mem_assoc p params) then
            fail "Pipeline.create(%s): kernel %S uses parameter %S with no default" name
              k.name p)
        (match k.op with
        | Kernel.Map e -> Expr.params e
        | Kernel.Reduce { arg; _ } -> Expr.params arg))
    kernels;
  let arr = Array.of_list kernels in
  let unsorted = Hashtbl.create 16 in
  Array.iteri (fun i (k : Kernel.t) -> Hashtbl.replace unsorted k.name i) arr;
  let g = build_dag (Hashtbl.find_opt unsorted) arr in
  let order =
    match Topo.sort g with
    | order -> order
    | exception Topo.Cycle cyc ->
      fail "Pipeline.create(%s): dependence cycle through kernels %s" name
        (String.concat " -> " (List.map (fun i -> arr.(i).Kernel.name) cyc))
  in
  let sorted = Array.of_list (List.map (fun i -> arr.(i)) order) in
  let index = ref Names.empty in
  Array.iteri (fun i (k : Kernel.t) -> index := Names.add k.name i !index) sorted;
  let index = !index in
  let g = build_dag (fun img -> Names.find_opt img index) sorted in
  (* Global kernels produce 1x1 images; forbid consuming them. *)
  Array.iteri
    (fun i (k : Kernel.t) ->
      if Kernel.is_global k && not (Iset.is_empty (Digraph.succs g i)) then
        fail "Pipeline.create(%s): global kernel %S is consumed by another kernel" name
          k.name)
    sorted;
  { name; width; height; channels; inputs; params; kernels = sorted; dag = g; index }

let num_kernels p = Array.length p.kernels

let kernel p i =
  if i < 0 || i >= Array.length p.kernels then fail "Pipeline.kernel: index %d out of range" i;
  p.kernels.(i)

let index_of p name = Names.find_opt name p.index

let index_of_exn p name =
  match index_of p name with
  | Some i -> i
  | None -> fail "Pipeline.index_of_exn(%s): no kernel %S" p.name name

let dag p = p.dag

let producer p image = index_of p image

let consumers p i = Digraph.succs (dag p) i

let outputs p =
  let g = dag p in
  Array.to_list p.kernels
  |> List.mapi (fun i (k : Kernel.t) -> (i, k))
  |> List.filter_map (fun (i, k) ->
         if Iset.is_empty (Digraph.succs g i) then Some k.Kernel.name else None)

let is_pixels p = p.width * p.height * p.channels

let edge_image p u v =
  let g = dag p in
  if not (Digraph.mem_edge g u v) then fail "Pipeline.edge_image: (%d, %d) is not an edge" u v;
  (kernel p u).Kernel.name

let with_kernels p kernels =
  create ~name:p.name ~width:p.width ~height:p.height ~channels:p.channels
    ~params:p.params ~inputs:p.inputs kernels

let pp ppf p =
  Format.fprintf ppf "@[<v2>pipeline %s (%dx%dx%d) inputs=[%s]@,%a@]" p.name p.width
    p.height p.channels
    (String.concat ", " p.inputs)
    (Format.pp_print_list Kernel.pp)
    (Array.to_list p.kernels)
