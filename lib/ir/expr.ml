module Border = Kfuse_image.Border
module Mask = Kfuse_image.Mask

type unop = Neg | Abs | Sqrt | Exp | Log | Sin | Cos | Floor
type binop = Add | Sub | Mul | Div | Min | Max | Pow
type cmp = Lt | Le | Eq

type t =
  | Const of float
  | Param of string
  | Input of { image : string; dx : int; dy : int; border : Border.mode }
  | Var of string
  | Let of { var : string; value : t; body : t }
  | Unop of unop * t
  | Binop of binop * t * t
  | Select of { cmp : cmp; lhs : t; rhs : t; if_true : t; if_false : t }
  | Shift of { dx : int; dy : int; exchange : Border.mode option; body : t }

let const c = Const c
let param p = Param p

let input ?(border = Border.Clamp) ?(dx = 0) ?(dy = 0) image =
  Input { image; dx; dy; border }

let ( + ) a b = Binop (Add, a, b)
let ( - ) a b = Binop (Sub, a, b)
let ( * ) a b = Binop (Mul, a, b)
let ( / ) a b = Binop (Div, a, b)
let neg a = Unop (Neg, a)
let abs a = Unop (Abs, a)
let sqrt a = Unop (Sqrt, a)
let exp a = Unop (Exp, a)
let log a = Unop (Log, a)
let sin a = Unop (Sin, a)
let cos a = Unop (Cos, a)
let floor a = Unop (Floor, a)
let min a b = Binop (Min, a, b)
let max a b = Binop (Max, a, b)
let pow a b = Binop (Pow, a, b)
let select cmp lhs rhs if_true if_false = Select { cmp; lhs; rhs; if_true; if_false }
let var v = Var v
let let_ var value body = Let { var; value; body }
let clamp01 e = max (Const 0.0) (min (Const 1.0) e)

let conv ?(border = Border.Clamp) mask image =
  let terms =
    Mask.fold
      (fun acc dx dy coeff ->
        if Float.equal coeff 0.0 then acc
        else begin
          let access = input ~border ~dx ~dy image in
          let term = if Float.equal coeff 1.0 then access else Const coeff * access in
          term :: acc
        end)
      [] mask
  in
  match List.rev terms with
  | [] -> Const 0.0
  | first :: rest -> List.fold_left ( + ) first rest

let rec fold_nodes f acc e =
  let acc = f acc e in
  match e with
  | Const _ | Param _ | Input _ | Var _ -> acc
  | Let { value; body; _ } -> fold_nodes f (fold_nodes f acc value) body
  | Unop (_, a) -> fold_nodes f acc a
  | Binop (_, a, b) -> fold_nodes f (fold_nodes f acc a) b
  | Select { lhs; rhs; if_true; if_false; _ } ->
    List.fold_left (fold_nodes f) acc [ lhs; rhs; if_true; if_false ]
  | Shift { body; _ } -> fold_nodes f acc body

(* Walk with the accumulated shift offset, so reported offsets are total
   (position-relative) offsets even under nested Shift nodes. *)
let rec fold_accesses f (sx, sy) acc e =
  match e with
  | Const _ | Param _ | Var _ -> acc
  | Input { image; dx; dy; _ } -> f acc image Stdlib.(sx + dx) Stdlib.(sy + dy)
  | Let { value; body; _ } ->
    fold_accesses f (sx, sy) (fold_accesses f (sx, sy) acc value) body
  | Unop (_, a) -> fold_accesses f (sx, sy) acc a
  | Binop (_, a, b) -> fold_accesses f (sx, sy) (fold_accesses f (sx, sy) acc a) b
  | Select { lhs; rhs; if_true; if_false; _ } ->
    List.fold_left (fold_accesses f (sx, sy)) acc [ lhs; rhs; if_true; if_false ]
  | Shift { dx; dy; body; _ } -> fold_accesses f Stdlib.(sx + dx, sy + dy) acc body

let accesses e =
  fold_accesses (fun acc image dx dy -> (image, dx, dy) :: acc) (0, 0) [] e
  |> List.rev

let images e =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun (img, _, _) ->
      if Hashtbl.mem seen img then None
      else begin
        Hashtbl.add seen img ();
        Some img
      end)
    (accesses e)

let radius e =
  fold_accesses
    (fun acc _ dx dy -> Stdlib.max acc (Stdlib.max (Stdlib.abs dx) (Stdlib.abs dy)))
    (0, 0) 0 e

(* Unlike [radius], every Shift's own (cumulative) offset counts too:
   [Shift(+r){Input(-r)}] reads at total offset 0, yet evaluating it
   first moves to offset r, where an index exchange may remap. *)
let reach e =
  let cheb dx dy = Stdlib.max (Stdlib.abs dx) (Stdlib.abs dy) in
  let rec go (sx, sy) acc e =
    match e with
    | Const _ | Param _ | Var _ -> acc
    | Input { dx; dy; _ } -> Stdlib.max acc (cheb Stdlib.(sx + dx) Stdlib.(sy + dy))
    | Let { value; body; _ } -> go (sx, sy) (go (sx, sy) acc value) body
    | Unop (_, a) -> go (sx, sy) acc a
    | Binop (_, a, b) -> go (sx, sy) (go (sx, sy) acc a) b
    | Select { lhs; rhs; if_true; if_false; _ } ->
      List.fold_left (go (sx, sy)) acc [ lhs; rhs; if_true; if_false ]
    | Shift { dx; dy; body; _ } ->
      let sx = Stdlib.(sx + dx) and sy = Stdlib.(sy + dy) in
      go (sx, sy) (Stdlib.max acc (cheb sx sy)) body
  in
  go (0, 0) 0 e

let radius_of_image e img =
  let hits = List.filter (fun (i, _, _) -> String.equal i img) (accesses e) in
  match hits with
  | [] -> None
  | _ ->
    Some
      (List.fold_left
         (fun acc (_, dx, dy) ->
           Stdlib.max acc (Stdlib.max (Stdlib.abs dx) (Stdlib.abs dy)))
         0 hits)

let rec subst_inputs f e =
  match e with
  | Const _ | Param _ | Var _ -> e
  | Input { image; dx; dy; border } -> f ~image ~dx ~dy ~border
  | Let { var; value; body } ->
    Let { var; value = subst_inputs f value; body = subst_inputs f body }
  | Unop (op, a) -> Unop (op, subst_inputs f a)
  | Binop (op, a, b) -> Binop (op, subst_inputs f a, subst_inputs f b)
  | Select { cmp; lhs; rhs; if_true; if_false } ->
    Select
      {
        cmp;
        lhs = subst_inputs f lhs;
        rhs = subst_inputs f rhs;
        if_true = subst_inputs f if_true;
        if_false = subst_inputs f if_false;
      }
  | Shift { dx; dy; exchange; body } -> Shift { dx; dy; exchange; body = subst_inputs f body }

let rename_images f e =
  subst_inputs (fun ~image ~dx ~dy ~border -> Input { image = f image; dx; dy; border }) e

let params e =
  let seen = Hashtbl.create 8 in
  fold_nodes
    (fun acc node ->
      match node with
      | Param p when not (Hashtbl.mem seen p) ->
        Hashtbl.add seen p ();
        p :: acc
      | _ -> acc)
    [] e
  |> List.rev

let size e = fold_nodes (fun n _ -> Stdlib.( + ) n 1) 0 e

let free_vars e =
  (* Walk with the set of bound names in scope; report first occurrences
     of unbound variables in syntactic order. *)
  let seen = Hashtbl.create 8 in
  let rec go bound acc e =
    match e with
    | Const _ | Param _ | Input _ -> acc
    | Var v ->
      if List.mem v bound || Hashtbl.mem seen v then acc
      else begin
        Hashtbl.add seen v ();
        v :: acc
      end
    | Let { var; value; body } -> go (var :: bound) (go bound acc value) body
    | Unop (_, a) -> go bound acc a
    | Binop (_, a, b) -> go bound (go bound acc a) b
    | Select { lhs; rhs; if_true; if_false; _ } ->
      List.fold_left (go bound) acc [ lhs; rhs; if_true; if_false ]
    | Shift { body; _ } -> go bound acc body
  in
  List.rev (go [] [] e)

let rec equal a b =
  match (a, b) with
  | Const x, Const y -> Float.equal x y
  | Param x, Param y -> String.equal x y
  | Input x, Input y ->
    String.equal x.image y.image && x.dx = y.dx && x.dy = y.dy
    && Border.equal x.border y.border
  | Var x, Var y -> String.equal x y
  | Let x, Let y ->
    String.equal x.var y.var && equal x.value y.value && equal x.body y.body
  | Unop (op1, a1), Unop (op2, a2) -> op1 = op2 && equal a1 a2
  | Binop (op1, a1, b1), Binop (op2, a2, b2) -> op1 = op2 && equal a1 a2 && equal b1 b2
  | Select x, Select y ->
    x.cmp = y.cmp && equal x.lhs y.lhs && equal x.rhs y.rhs
    && equal x.if_true y.if_true && equal x.if_false y.if_false
  | Shift x, Shift y ->
    x.dx = y.dx && x.dy = y.dy
    && Option.equal Border.equal x.exchange y.exchange
    && equal x.body y.body
  | (Const _ | Param _ | Input _ | Var _ | Let _ | Unop _ | Binop _ | Select _ | Shift _), _
    -> false

let unop_name = function
  | Neg -> "neg"
  | Abs -> "abs"
  | Sqrt -> "sqrt"
  | Exp -> "exp"
  | Log -> "log"
  | Sin -> "sin"
  | Cos -> "cos"
  | Floor -> "floor"

let binop_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Min -> "min"
  | Max -> "max"
  | Pow -> "pow"

let cmp_name = function Lt -> "<" | Le -> "<=" | Eq -> "=="

let rec pp ppf e =
  match e with
  | Const c -> Format.fprintf ppf "%g" c
  | Param p -> Format.fprintf ppf "$%s" p
  | Input { image; dx; dy; border } ->
    if dx = 0 && dy = 0 then Format.fprintf ppf "%s" image
    else Format.fprintf ppf "%s@@(%d,%d)[%a]" image dx dy Border.pp border
  | Var v -> Format.fprintf ppf "%%%s" v
  | Let { var; value; body } ->
    Format.fprintf ppf "(let %%%s = %a in %a)" var pp value pp body
  | Unop (op, a) -> Format.fprintf ppf "%s(%a)" (unop_name op) pp a
  | Binop ((Min | Max | Pow) as op, a, b) ->
    Format.fprintf ppf "%s(%a, %a)" (binop_name op) pp a pp b
  | Binop (op, a, b) -> Format.fprintf ppf "(%a %s %a)" pp a (binop_name op) pp b
  | Select { cmp; lhs; rhs; if_true; if_false } ->
    Format.fprintf ppf "(%a %s %a ? %a : %a)" pp lhs (cmp_name cmp) pp rhs pp
      if_true pp if_false
  | Shift { dx; dy; exchange; body } ->
    let ex =
      match exchange with
      | None -> ""
      | Some mode -> Printf.sprintf "!%s" (Border.to_string mode)
    in
    Format.fprintf ppf "shift(%d,%d)%s{%a}" dx dy ex pp body
