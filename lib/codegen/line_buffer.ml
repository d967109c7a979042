module Expr = Kfuse_ir.Expr

(* A subexpression's translation class.  [Shift] is transparent: in the
   interior it only moves the evaluation point.  A compound node's class
   is its operator, its children's classes, and each anchored child's
   anchor relative to the node's own: two nodes of one class evaluated
   with their anchors on the same pixel compute the same value with the
   same operations.  Border modes are left out, since the interior never
   consults them; constants enter by their bits, so [0.0] and [-0.0]
   stay apart. *)
type head = Unop of Expr.unop | Binop of Expr.binop | Select of Expr.cmp | Let of string

type shape =
  | Const of int64
  | Param of string
  | Var of string
  | Input of string
  | Node of head * (int * (int * int) option) list

type info = {
  cls : int;
  anchor : (int * int) option;  (* the first Input's offset from this node *)
  costly : bool;  (* contains Div, Pow, Sqrt, Exp, Log, Sin or Cos *)
  free : string list;  (* free variables *)
  bare : bool;  (* an Input under zero or more Shifts *)
}

(* The body as a tree of classified nodes; each child carries the
   offset its parent moves it by (non-zero only under a Shift). *)
type node = { expr : Expr.t; info : info; kids : (int * int * node) list }

let annotate body =
  let classes = Hashtbl.create 64 in
  let intern shape =
    match Hashtbl.find_opt classes shape with
    | Some i -> i
    | None ->
      let i = Hashtbl.length classes in
      Hashtbl.add classes shape i;
      i
  in
  let leaf e shape ~anchor ~free ~bare =
    { expr = e; info = { cls = intern shape; anchor; costly = false; free; bare }; kids = [] }
  in
  let rec go e =
    match e with
    | Expr.Const c -> leaf e (Const (Int64.bits_of_float c)) ~anchor:None ~free:[] ~bare:false
    | Expr.Param p -> leaf e (Param p) ~anchor:None ~free:[] ~bare:false
    | Expr.Var v -> leaf e (Var v) ~anchor:None ~free:[ v ] ~bare:false
    | Expr.Input { image; dx; dy; _ } ->
      leaf e (Input image) ~anchor:(Some (dx, dy)) ~free:[] ~bare:true
    | Expr.Shift { dx; dy; body; _ } ->
      let k = go body in
      let anchor = Option.map (fun (ax, ay) -> (ax + dx, ay + dy)) k.info.anchor in
      { expr = e; info = { k.info with anchor }; kids = [ (dx, dy, k) ] }
    | Expr.Unop (op, a) ->
      let costly =
        match op with
        | Expr.Sqrt | Expr.Exp | Expr.Log | Expr.Sin | Expr.Cos -> true
        | Expr.Neg | Expr.Abs | Expr.Floor -> false
      in
      compound e (Unop op) ~costly [ a ]
    | Expr.Binop (op, a, b) ->
      let costly =
        match op with
        | Expr.Div | Expr.Pow -> true
        | Expr.Add | Expr.Sub | Expr.Mul | Expr.Min | Expr.Max -> false
      in
      compound e (Binop op) ~costly [ a; b ]
    | Expr.Select { cmp; lhs; rhs; if_true; if_false } ->
      compound e (Select cmp) ~costly:false [ lhs; rhs; if_true; if_false ]
    | Expr.Let { var; value; body } -> compound e (Let var) ~costly:false [ value; body ]
  and compound e head ~costly children =
    let kids = List.map go children in
    let anchor = List.find_map (fun k -> k.info.anchor) kids in
    let rel k =
      match (k.info.anchor, anchor) with
      | Some (x, y), Some (ax, ay) -> Some (x - ax, y - ay)
      | _ -> None
    in
    let free =
      match (head, kids) with
      | Let var, [ value; body ] ->
        value.info.free @ List.filter (fun v -> v <> var) body.info.free
      | _ -> List.concat_map (fun k -> k.info.free) kids
    in
    let info =
      {
        cls = intern (Node (head, List.map (fun k -> (k.info.cls, rel k)) kids));
        anchor;
        costly = costly || List.exists (fun k -> k.info.costly) kids;
        free;
        bare = false;
      }
    in
    { expr = e; info; kids = List.map (fun k -> (0, 0, k)) kids }
  in
  go body

type hoist = { expr : Expr.t; anchor : int * int; positions : (int * int) list }

type t = { hoists : hoist list; marks : (Expr.t * (int * (int * int))) list }

(* Every (node, offset of its evaluation point from the pixel) pair,
   descending into a child only when [descend] allows the parent. *)
let rec walk ~descend f (ox, oy) n =
  f (ox, oy) n;
  if descend n then List.iter (fun (dx, dy, k) -> walk ~descend f (ox + dx, oy + dy) k) n.kids

let position (ox, oy) (ax, ay) = (ox + ax, oy + ay)

let analyse body =
  let root = annotate body in
  (* Distinct positions of every class over the whole body. *)
  let seen = Hashtbl.create 64 in
  walk ~descend:(fun _ -> true)
    (fun o n ->
      Option.iter (fun a -> Hashtbl.replace seen (n.info.cls, position o a) ()) n.info.anchor)
    (0, 0) root;
  let count = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (cls, _) () ->
      Hashtbl.replace count cls (1 + Option.value ~default:0 (Hashtbl.find_opt count cls)))
    seen;
  let qualifies (i : info) =
    i.anchor <> None && (not i.bare) && i.costly && i.free = []
    && Option.value ~default:0 (Hashtbl.find_opt count i.cls) >= 2
  in
  (* Top-down selection: the first qualifying node on every path. *)
  let order = ref [] and reached = Hashtbl.create 16 and marks = ref [] in
  walk
    ~descend:(fun n -> not (qualifies n.info))
    (fun o n ->
      if qualifies n.info then begin
        let anchor = Option.get n.info.anchor in
        let cls = n.info.cls in
        if not (Hashtbl.mem reached cls) then begin
          order := (cls, n.expr, anchor) :: !order;
          Hashtbl.add reached cls []
        end;
        let ps = Hashtbl.find reached cls and p = position o anchor in
        if not (List.mem p ps) then Hashtbl.replace reached cls (p :: ps);
        if not (List.exists (fun (e, _) -> e == n.expr) !marks) then
          marks := (n.expr, (cls, anchor)) :: !marks
      end)
    (0, 0) root;
  let order = List.rev !order in
  let index cls =
    let rec go i = function
      | (c, _, _) :: rest -> if c = cls then i else go (i + 1) rest
      | [] -> assert false
    in
    go 0 order
  in
  {
    hoists =
      List.map
        (fun (cls, expr, anchor) ->
          { expr; anchor; positions = List.sort compare (Hashtbl.find reached cls) })
        order;
    marks = List.map (fun (e, (cls, anchor)) -> (e, (index cls, anchor))) !marks;
  }

let hoists t = t.hoists

let find t e =
  List.find_map (fun (n, found) -> if n == e then Some found else None) t.marks
