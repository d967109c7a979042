module Diag = Kfuse_util.Diag
module Kernel = Kfuse_ir.Kernel
module Expr = Kfuse_ir.Expr
module Pipeline = Kfuse_ir.Pipeline
module Validate = Kfuse_ir.Validate
module Config = Kfuse_fusion.Config

type t = {
  name : string;
  width : int;
  height : int;
  channels : int;
  mutable inputs : string list;
  mutable params : (string * float) list;
  mutable kernels : Kernel.t list;  (* insertion order *)
  mutable built : (Pipeline.t, Diag.t) result;
      (* the fields above, built; only [commit] changes them *)
  session : Replan.t;
  mutable generation : int;
}

let make (d : Validate.input) config =
  {
    name = d.Validate.name;
    width = d.Validate.width;
    height = d.Validate.height;
    channels = d.Validate.channels;
    inputs = d.Validate.inputs;
    params = d.Validate.params;
    kernels = d.Validate.kernels;
    built = Validate.build d;
    session = Replan.create config;
    generation = 0;
  }

(* Input names reach DSL source later (the [add] command's expression
   scope), so anything that is not an identifier is refused up front,
   as is a second input of one name: at [create] and at [add_input]. *)
let check_inputs inputs =
  let rec dup = function [] -> None | x :: rest -> if List.mem x rest then Some x else dup rest in
  match (List.find_opt (fun i -> not (Kfuse_dsl.Lexer.is_ident i)) inputs, dup inputs) with
  | Some bad, _ -> Error (Diag.errorf Diag.Elab_error "input %S is not an identifier" bad)
  | None, Some n -> Error (Diag.errorf Diag.Duplicate_name "duplicate input %S" n)
  | None, None -> Ok ()

let create ?(name = "lazy") ?(channels = 1) ?(params = []) ?(inputs = []) ~width
    ~height config =
  let d = { Validate.name; width; height; channels; inputs; params; kernels = [] } in
  match (Config.validate_result config, check_inputs inputs, Validate.errors d) with
  | (Error e, _, _ | Ok (), Error e, _ | Ok (), Ok (), e :: _) -> Error e
  | Ok (), Ok (), [] -> Ok (make d config)

let of_pipeline config p = make (Validate.of_pipeline p) config

(* Trial-build the would-be state; commit only when the validator (and
   Pipeline.create behind it) accepts it, so the builder never holds an
   unconstructible pipeline. *)
let commit t ?inputs ?params ?kernels () =
  let inputs = Option.value ~default:t.inputs inputs in
  let params = Option.value ~default:t.params params in
  let kernels = Option.value ~default:t.kernels kernels in
  match
    Validate.build
      { Validate.name = t.name; width = t.width; height = t.height; channels = t.channels;
        inputs; params; kernels }
  with
  | Error d -> Error d
  | Ok _ as built ->
    t.inputs <- inputs;
    t.params <- params;
    t.kernels <- kernels;
    t.built <- built;
    t.generation <- t.generation + 1;
    Ok ()

let add t k = commit t ~kernels:(t.kernels @ [ k ]) ()

let remove t name =
  if List.exists (fun (k : Kernel.t) -> k.Kernel.name = name) t.kernels then
    commit t
      ~kernels:(List.filter (fun (k : Kernel.t) -> k.Kernel.name <> name) t.kernels)
      ()
  else Error (Diag.errorf Diag.Dangling_ref "no kernel named '%s' to delete" name)

let retarget t ~kernel ~from_ ~to_ =
  match List.find_opt (fun (k : Kernel.t) -> k.Kernel.name = kernel) t.kernels with
  | None -> Error (Diag.errorf Diag.Dangling_ref "no kernel named '%s' to retarget" kernel)
  | Some k ->
    if not (List.mem from_ k.Kernel.inputs) then
      Error
        (Diag.errorf Diag.Dangling_ref "kernel '%s' does not read image '%s'" kernel
           from_)
    else if from_ = to_ then Ok ()
    else (
      let ren img = if img = from_ then to_ else img in
      match
        let op =
          match k.Kernel.op with
          | Kernel.Map e -> Kernel.Map (Expr.rename_images ren e)
          | Kernel.Reduce r -> Kernel.Reduce { r with arg = Expr.rename_images ren r.arg }
        in
        let body = match op with Kernel.Map e -> e | Kernel.Reduce r -> r.arg in
        Kernel.create ~name:k.Kernel.name ~inputs:(Expr.images body) op
      with
      | exception Invalid_argument msg ->
        Error (Diag.errorf Diag.Elab_error "retarget '%s': %s" kernel msg)
      | k' ->
        commit t
          ~kernels:
            (List.map
               (fun (k0 : Kernel.t) -> if k0.Kernel.name = kernel then k' else k0)
               t.kernels)
          ())

let set_param t name v =
  let params =
    if List.mem_assoc name t.params then
      List.map (fun (n, d) -> if n = name then (n, v) else (n, d)) t.params
    else t.params @ [ (name, v) ]
  in
  commit t ~params ()

let add_input t name =
  let inputs = t.inputs @ [ name ] in
  Result.bind (check_inputs inputs) (commit t ~inputs)

let name t = t.name
let width t = t.width
let height t = t.height
let channels t = t.channels
let inputs t = t.inputs
let params t = t.params
let kernels t = t.kernels

let images t =
  t.inputs @ List.map (fun (k : Kernel.t) -> k.Kernel.name) t.kernels

let generation t = t.generation

let pipeline t = t.built

let session t = t.session

let flush ?pool t =
  Result.bind (pipeline t) (fun p -> Replan.plan ?pool t.session p)

let flush_scratch ?pool t =
  Result.bind (pipeline t) (fun p ->
      Replan.scratch ?pool (Replan.config t.session) p)

let last t = Replan.last t.session
