module Image = Kfuse_image.Image
module Border = Kfuse_image.Border
module Env = Map.Make (String)

type env = Image.t Env.t

let env_of_list bindings =
  List.fold_left (fun env (name, img) -> Env.add name img env) Env.empty bindings

let apply_unop op v =
  match op with
  | Expr.Neg -> -.v
  | Expr.Abs -> Float.abs v
  | Expr.Sqrt -> sqrt v
  | Expr.Exp -> exp v
  | Expr.Log -> log v
  | Expr.Sin -> sin v
  | Expr.Cos -> cos v
  | Expr.Floor -> Float.floor v

let apply_binop op a b =
  match op with
  | Expr.Add -> a +. b
  | Expr.Sub -> a -. b
  | Expr.Mul -> a *. b
  | Expr.Div -> a /. b
  | Expr.Min -> Float.min a b
  | Expr.Max -> Float.max a b
  | Expr.Pow -> Float.pow a b

let apply_cmp cmp a b =
  match cmp with
  | Expr.Lt -> a < b
  | Expr.Le -> a <= b
  | Expr.Eq -> Float.equal a b

let eval_expr ~env ~params ~width ~height ~x ~y e =
  let lookup_image name =
    match Env.find_opt name env with
    | Some img -> img
    | None -> invalid_arg (Printf.sprintf "Eval: unbound image %S" name)
  in
  let lookup_param name =
    match List.assoc_opt name params with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Eval: unbound parameter %S" name)
  in
  let rec go ~vars ~x ~y e =
    match e with
    | Expr.Const c -> c
    | Expr.Param p -> lookup_param p
    | Expr.Input { image; dx; dy; border } ->
      Image.get_bordered (lookup_image image) border (x + dx) (y + dy)
    | Expr.Var v -> (
      match List.assoc_opt v vars with
      | Some value -> value
      | None -> invalid_arg (Printf.sprintf "Eval: unbound variable %%%s" v))
    | Expr.Let { var; value; body } ->
      let bound = go ~vars ~x ~y value in
      go ~vars:((var, bound) :: vars) ~x ~y body
    | Expr.Unop (op, a) -> apply_unop op (go ~vars ~x ~y a)
    | Expr.Binop (op, a, b) -> apply_binop op (go ~vars ~x ~y a) (go ~vars ~x ~y b)
    | Expr.Select { cmp; lhs; rhs; if_true; if_false } ->
      if apply_cmp cmp (go ~vars ~x ~y lhs) (go ~vars ~x ~y rhs) then
        go ~vars ~x ~y if_true
      else go ~vars ~x ~y if_false
    | Expr.Shift { dx; dy; exchange; body } -> (
      (* Let-bound values are plain floats captured at their binding
         position; they stay in scope across a Shift (lexical scoping). *)
      let nx = x + dx and ny = y + dy in
      match exchange with
      | None -> go ~vars ~x:nx ~y:ny body
      | Some mode -> (
        (* Index exchange (Section IV-B): re-resolve the shifted position
           against the iteration space before evaluating the inlined
           producer body. *)
        match Border.resolve mode ~width ~height nx ny with
        | Border.Inside (nx', ny') -> go ~vars ~x:nx' ~y:ny' body
        | Border.Const_value c -> c
        | Border.Undef -> invalid_arg "Eval: undefined border in index exchange"))
  in
  go ~vars:[] ~x ~y e

(* Kernel execution compiles the body once (see {!Compile}) and runs it a
   row at a time, straight into the output's storage, instead of
   re-walking the AST per pixel; a reduction folds the rows in row-major
   order with [combine], one pixel at a time.  [eval_expr] above remains
   the executable specification the compiler is property-tested
   against: the result equals it at every pixel, bit for bit, and raises
   [Invalid_argument] where it would. *)
let run_kernel ~env ~params ~width ~height (k : Kernel.t) =
  let lookup name =
    match Env.find_opt name env with
    | Some img -> img
    | None -> invalid_arg (Printf.sprintf "Eval: unbound image %S" name)
  in
  match k.op with
  | Kernel.Map body ->
    let c = Compile.expr ~width ~height ~params ~lookup body in
    (* Every element is written below: no zero-fill first. *)
    let data = Array.create_float (width * height) in
    for y = 0 to height - 1 do
      Array.blit (Compile.row c y) 0 data (y * width) width
    done;
    Image.unsafe_of_flat ~width ~height data
  | Kernel.Reduce { init; combine; arg } ->
    (* Row-major, one [combine] per pixel: the scalar fold's order. *)
    let c = Compile.expr ~width ~height ~params ~lookup arg in
    let fold = Compile.fold combine in
    let acc = ref init in
    for y = 0 to height - 1 do
      acc := fold !acc (Compile.row c y) width
    done;
    Image.const ~width:1 ~height:1 !acc

let check_inputs (p : Pipeline.t) env =
  List.iter
    (fun name ->
      match Env.find_opt name env with
      | None -> invalid_arg (Printf.sprintf "Eval.run(%s): missing input %S" p.name name)
      | Some img ->
        if Image.width img <> p.width || Image.height img <> p.height then
          invalid_arg
            (Printf.sprintf "Eval.run(%s): input %S is %dx%d, expected %dx%d" p.name
               name (Image.width img) (Image.height img) p.width p.height))
    p.inputs;
  Env.iter
    (fun name _ ->
      if not (List.mem name p.inputs) then
        invalid_arg (Printf.sprintf "Eval.run(%s): unexpected binding %S" p.name name))
    env

let merged_params (p : Pipeline.t) overrides =
  List.map
    (fun (name, default) ->
      (name, Option.value ~default (List.assoc_opt name overrides)))
    p.params

let run ?(params = []) (p : Pipeline.t) env =
  check_inputs p env;
  let params = merged_params p params in
  Array.fold_left
    (fun env k ->
      let out = run_kernel ~env ~params ~width:p.width ~height:p.height k in
      Env.add k.Kernel.name out env)
    env p.kernels

let run_outputs ?(params = []) p env =
  let final = run ~params p env in
  List.map (fun name -> (name, Env.find name final))
    (List.sort String.compare (Pipeline.outputs p))
