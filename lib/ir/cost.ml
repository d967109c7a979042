type counts = { alu : int; sfu : int }

let zero = { alu = 0; sfu = 0 }
let add_alu c = { c with alu = c.alu + 1 }
let add_sfu c = { c with sfu = c.sfu + 1 }

let classify_unop = function
  | Expr.Neg | Expr.Abs | Expr.Floor -> `Alu
  | Expr.Sqrt | Expr.Exp | Expr.Log | Expr.Sin | Expr.Cos -> `Sfu

let classify_binop = function
  | Expr.Add | Expr.Sub | Expr.Mul | Expr.Min | Expr.Max -> `Alu
  | Expr.Div | Expr.Pow -> `Sfu

let rec count acc e =
  match e with
  | Expr.Const _ | Expr.Param _ | Expr.Input _ | Expr.Var _ -> acc
  | Expr.Let { value; body; _ } -> count (count acc value) body
  | Expr.Unop (op, a) ->
    let acc = match classify_unop op with `Alu -> add_alu acc | `Sfu -> add_sfu acc in
    count acc a
  | Expr.Binop (op, a, b) ->
    let acc = match classify_binop op with `Alu -> add_alu acc | `Sfu -> add_sfu acc in
    count (count acc a) b
  | Expr.Select { lhs; rhs; if_true; if_false; _ } ->
    List.fold_left count (add_alu acc) [ lhs; rhs; if_true; if_false ]
  | Expr.Shift { body; _ } -> count acc body

let op_counts e = count zero e

let kernel_op_counts (k : Kernel.t) =
  match k.op with
  | Kernel.Map e -> add_alu (op_counts e)
  | Kernel.Reduce { combine; arg; _ } ->
    let acc = op_counts arg in
    let acc = match classify_binop combine with `Alu -> add_alu acc | `Sfu -> add_sfu acc in
    add_alu acc

let cost_op ~c_alu ~c_sfu { alu; sfu } =
  (c_alu *. float_of_int alu) +. (c_sfu *. float_of_int sfu)

type block = { bx : int; by : int }

let default_block = { bx = 32; by = 4 }

let tile_bytes block ~radius =
  if radius < 0 then invalid_arg "Cost.tile_bytes: negative radius";
  (block.bx + (2 * radius)) * (block.by + (2 * radius)) * 4

let tile_bytes_window block (w : Footprint.window) =
  (block.bx + Footprint.width w - 1) * (block.by + Footprint.height w - 1) * 4

let kernel_shared_bytes block k =
  if Kernel.is_global k then 0
  else
    List.fold_left
      (fun acc (_, w) ->
        if Footprint.is_point w then acc else acc + tile_bytes_window block w)
      0 (Footprint.of_kernel k)

(* Sethi-Ullman labeling: registers needed to evaluate a binary node are
   max of the children when they differ, one more when equal; a Let holds
   its value in a register for the whole body. *)
let rec register_estimate e =
  match e with
  | Expr.Const _ | Expr.Param _ | Expr.Input _ | Expr.Var _ -> 1
  | Expr.Unop (_, a) -> register_estimate a
  | Expr.Binop (_, a, b) ->
    let ra = register_estimate a and rb = register_estimate b in
    if ra = rb then ra + 1 else max ra rb
  | Expr.Select { lhs; rhs; if_true; if_false; _ } ->
    (* Comparison operands are evaluated together, branches sequentially. *)
    let rcond =
      let ra = register_estimate lhs and rb = register_estimate rhs in
      if ra = rb then ra + 1 else max ra rb
    in
    List.fold_left max rcond [ register_estimate if_true; register_estimate if_false ]
  | Expr.Let { value; body; _ } ->
    max (register_estimate value) (1 + register_estimate body)
  | Expr.Shift { body; _ } -> register_estimate body

let kernel_registers (k : Kernel.t) =
  let body = match k.Kernel.op with Kernel.Map e -> e | Kernel.Reduce { arg; _ } -> arg in
  min 255 (10 + register_estimate body)
