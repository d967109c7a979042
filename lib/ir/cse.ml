module Emap = Map.Make (struct
  type t = Expr.t

  (* Expr.t is a pure first-order datatype, so the polymorphic comparison
     is a sound structural order. *)
  let compare = Stdlib.compare
end)

(* All names bound by Let anywhere in [e] (for fresh-name generation). *)
let bound_names e =
  Expr.(
    let rec go acc e =
      match e with
      | Const _ | Param _ | Input _ | Var _ -> acc
      | Let { var; value; body } -> go (go (var :: acc) value) body
      | Unop (_, a) -> go acc a
      | Binop (_, a, b) -> go (go acc a) b
      | Select { lhs; rhs; if_true; if_false; _ } ->
        List.fold_left go acc [ lhs; rhs; if_true; if_false ]
      | Shift { body; _ } -> go acc body
    in
    go [] e)

(* Count subtree occurrences within the current frame, recording the
   position of each subtree's first occurrence in a left-to-right
   traversal: Shift bodies are a different evaluation position, so they
   are opaque (the Shift node as a whole still counts as a frame value). *)
let rec count_frame tbl pos e =
  let at = !pos in
  incr pos;
  tbl :=
    Emap.update e
      (function None -> Some (1, at) | Some (n, first) -> Some (n + 1, first))
      !tbl;
  match e with
  | Expr.Const _ | Expr.Param _ | Expr.Input _ | Expr.Var _ | Expr.Shift _ -> ()
  | Expr.Let { value; body; _ } ->
    count_frame tbl pos value;
    count_frame tbl pos body
  | Expr.Unop (_, a) -> count_frame tbl pos a
  | Expr.Binop (_, a, b) ->
    count_frame tbl pos a;
    count_frame tbl pos b
  | Expr.Select { lhs; rhs; if_true; if_false; _ } ->
    List.iter (count_frame tbl pos) [ lhs; rhs; if_true; if_false ]

(* Replace frame occurrences of [t] by [Var v]; Shift bodies are opaque. *)
let rec replace t v e =
  if Expr.equal e t then Expr.Var v
  else
    match e with
    | Expr.Const _ | Expr.Param _ | Expr.Input _ | Expr.Var _ | Expr.Shift _ -> e
    | Expr.Let { var; value; body } ->
      Expr.Let { var; value = replace t v value; body = replace t v body }
    | Expr.Unop (op, a) -> Expr.Unop (op, replace t v a)
    | Expr.Binop (op, a, b) -> Expr.Binop (op, replace t v a, replace t v b)
    | Expr.Select { cmp; lhs; rhs; if_true; if_false } ->
      Expr.Select
        {
          cmp;
          lhs = replace t v lhs;
          rhs = replace t v rhs;
          if_true = replace t v if_true;
          if_false = replace t v if_false;
        }

(* A subtree may be bound at the top of a frame when each variable it
   reads is in [scope] (bound by a [Let] around the frame) and rebound
   nowhere inside the frame ([rebound]), so that every occurrence reads
   the same binding as the new [Let]'s value does. *)
let eligible ~scope ~rebound min_size e =
  match e with
  | Expr.Const _ | Expr.Param _ | Expr.Var _ | Expr.Let _ -> false
  | Expr.Input _ | Expr.Unop _ | Expr.Binop _ | Expr.Select _ | Expr.Shift _ ->
    Expr.size e >= min_size
    && List.for_all (fun v -> List.mem v scope && not (List.mem v rebound)) (Expr.free_vars e)

(* Process the top-level frame of [e] to a fixpoint: repeatedly bind the
   largest repeated eligible subtree.  Size ties break on first
   occurrence in traversal order, never on subtree contents — binding
   order must not depend on what the images in scope are called.  Then
   the body of each [Let] in the frame is a frame of its own, with the
   [Let]'s variable in scope: a repeat that reads it is bound there. *)
let rec bind_repeats ~scope ~min_size ~fresh e =
  let tbl = ref Emap.empty in
  count_frame tbl (ref 0) e;
  let rebound = if scope = [] then [] else bound_names e in
  let candidate =
    Emap.fold
      (fun sub (n, first) best ->
        if n >= 2 && eligible ~scope ~rebound min_size sub then
          match best with
          | Some (b, bfirst) ->
            let s = Expr.size sub and bs = Expr.size b in
            if s > bs || (s = bs && first < bfirst) then Some (sub, first) else best
          | None -> Some (sub, first)
        else best)
      !tbl None
    |> Option.map fst
  in
  match candidate with
  | None -> let_bodies ~scope ~min_size ~fresh e
  | Some t ->
    let v = fresh () in
    bind_repeats ~scope ~min_size ~fresh (Expr.Let { var = v; value = t; body = replace t v e })

and let_bodies ~scope ~min_size ~fresh e =
  let go = let_bodies ~scope ~min_size ~fresh in
  match e with
  | Expr.Const _ | Expr.Param _ | Expr.Input _ | Expr.Var _ | Expr.Shift _ -> e
  | Expr.Let { var; value; body } ->
    Expr.Let
      { var; value = go value; body = bind_repeats ~scope:(var :: scope) ~min_size ~fresh body }
  | Expr.Unop (op, a) -> Expr.Unop (op, go a)
  | Expr.Binop (op, a, b) -> Expr.Binop (op, go a, go b)
  | Expr.Select { cmp; lhs; rhs; if_true; if_false } ->
    Expr.Select { cmp; lhs = go lhs; rhs = go rhs; if_true = go if_true; if_false = go if_false }

(* Recurse into sub-frames (Shift bodies) first, then bind in this frame. *)
let rec process ~min_size ~fresh e =
  let rec sub_frames e =
    match e with
    | Expr.Const _ | Expr.Param _ | Expr.Input _ | Expr.Var _ -> e
    | Expr.Shift { dx; dy; exchange; body } ->
      Expr.Shift { dx; dy; exchange; body = process ~min_size ~fresh body }
    | Expr.Let { var; value; body } ->
      Expr.Let { var; value = sub_frames value; body = sub_frames body }
    | Expr.Unop (op, a) -> Expr.Unop (op, sub_frames a)
    | Expr.Binop (op, a, b) -> Expr.Binop (op, sub_frames a, sub_frames b)
    | Expr.Select { cmp; lhs; rhs; if_true; if_false } ->
      Expr.Select
        {
          cmp;
          lhs = sub_frames lhs;
          rhs = sub_frames rhs;
          if_true = sub_frames if_true;
          if_false = sub_frames if_false;
        }
  in
  bind_repeats ~scope:[] ~min_size ~fresh (sub_frames e)

let expr ?(min_size = 1) e =
  let taken = ref (bound_names e) in
  let counter = ref 0 in
  let rec fresh () =
    incr counter;
    let name = Printf.sprintf "cse_%d" !counter in
    if List.mem name !taken then fresh ()
    else begin
      taken := name :: !taken;
      name
    end
  in
  process ~min_size ~fresh e

let kernel ?min_size (k : Kernel.t) =
  match k.Kernel.op with
  | Kernel.Map body ->
    Kernel.map ~name:k.Kernel.name ~inputs:k.Kernel.inputs (expr ?min_size body)
  | Kernel.Reduce { init; combine; arg } ->
    Kernel.reduce ~name:k.Kernel.name ~inputs:k.Kernel.inputs ~init ~combine
      (expr ?min_size arg)

let pipeline ?min_size (p : Pipeline.t) =
  Pipeline.with_kernels p (List.map (kernel ?min_size) (Array.to_list p.Pipeline.kernels))

(* ---- kernel-level CSE: twin deduplication ----

   Two kernels whose (renamed) bodies are structurally equal compute the
   same image; all but the earliest are redundant.  Consumers are
   rewired producer-by-producer in stored (topological) order, so a
   rename can reveal new twins downstream and one pass reaches the
   fixpoint. *)

let op_equal (a : Kernel.op) (b : Kernel.op) =
  match (a, b) with
  | Kernel.Map x, Kernel.Map y -> Expr.equal x y
  | Kernel.Reduce r, Kernel.Reduce s ->
    Float.equal r.init s.init && r.combine = s.combine && Expr.equal r.arg s.arg
  | Kernel.Map _, Kernel.Reduce _ | Kernel.Reduce _, Kernel.Map _ -> false

(* Order-preserving dedup: renaming can make two declared inputs
   coincide, but an untouched kernel must keep its declaration order so
   the rebuild is byte-identical. *)
let dedup_stable inputs =
  List.rev
    (List.fold_left
       (fun acc i -> if List.mem i acc then acc else i :: acc)
       [] inputs)

let dedup_kernels (p : Pipeline.t) =
  let repl : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let ren img = Option.value ~default:img (Hashtbl.find_opt repl img) in
  let rewrite (k : Kernel.t) =
    let op =
      match k.Kernel.op with
      | Kernel.Map e -> Kernel.Map (Expr.rename_images ren e)
      | Kernel.Reduce { init; combine; arg } ->
        Kernel.Reduce { init; combine; arg = Expr.rename_images ren arg }
    in
    Kernel.create ~name:k.Kernel.name
      ~inputs:(dedup_stable (List.map ren k.Kernel.inputs))
      op
  in
  let kept = ref [] in
  Array.iteri
    (fun i k ->
      let k = rewrite k in
      match List.find_opt (fun (r : Kernel.t) -> op_equal r.Kernel.op k.Kernel.op) !kept with
      | Some r when not (Kfuse_util.Iset.is_empty (Pipeline.consumers p i)) ->
        (* A consumed twin: rewire its readers to the representative and
           drop it.  An unconsumed twin is a pipeline output — dropping
           it would change the pipeline's interface — so it stays. *)
        Hashtbl.replace repl k.Kernel.name r.Kernel.name
      | _ -> kept := k :: !kept)
    p.Pipeline.kernels;
  Pipeline.with_kernels p (List.rev !kept)
