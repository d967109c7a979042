module Iset = Kfuse_util.Iset
module Expr = Kfuse_ir.Expr
module Kernel = Kfuse_ir.Kernel
module Pipeline = Kfuse_ir.Pipeline
module Validate = Kfuse_ir.Validate

let kernels_list (p : Pipeline.t) = Array.to_list p.Pipeline.kernels

(* Rebuild around changed pieces; None when the result is not a
   constructible, validation-clean pipeline (a candidate that broke an
   invariant is simply not a candidate). *)
let rebuild ?width ?height ?inputs ?params (p : Pipeline.t) kernels =
  let width = Option.value ~default:p.Pipeline.width width in
  let height = Option.value ~default:p.Pipeline.height height in
  let inputs = Option.value ~default:p.Pipeline.inputs inputs in
  let params = Option.value ~default:p.Pipeline.params params in
  match
    Pipeline.create ~name:p.Pipeline.name ~width ~height ~channels:p.Pipeline.channels
      ~params ~inputs kernels
  with
  | exception _ -> None
  | q -> if Validate.pipeline q = [] then Some q else None

let with_body (k : Kernel.t) body =
  match Kernel.map ~name:k.Kernel.name ~inputs:(Expr.images body) body with
  | k' -> Some k'
  | exception _ -> None

let with_reduce_arg (k : Kernel.t) arg =
  match k.Kernel.op with
  | Kernel.Map _ -> None
  | Kernel.Reduce { init; combine; _ } -> (
    match Kernel.reduce ~name:k.Kernel.name ~inputs:(Expr.images arg) ~init ~combine arg with
    | k' -> Some k'
    | exception _ -> None)

let kernel_expr (k : Kernel.t) =
  match k.Kernel.op with Kernel.Map e -> e | Kernel.Reduce { arg; _ } -> arg

let set_kernel_expr (k : Kernel.t) e =
  match k.Kernel.op with Kernel.Map _ -> with_body k e | Kernel.Reduce _ -> with_reduce_arg k e

let children e =
  match e with
  | Expr.Const _ | Expr.Param _ | Expr.Input _ | Expr.Var _ -> []
  | Expr.Let { value; body; _ } -> [ body; value ]
  | Expr.Unop (_, a) -> [ a ]
  | Expr.Binop (_, a, b) -> [ a; b ]
  | Expr.Select { lhs; rhs; if_true; if_false; _ } -> [ if_true; if_false; lhs; rhs ]
  | Expr.Shift { body; _ } -> [ body ]

(* ---- candidate moves; each returns a lazy list of pipelines ---- *)

let drop_sinks p () =
  let n = Pipeline.num_kernels p in
  if n < 2 then []
  else
    List.filter_map
      (fun i ->
        if Iset.is_empty (Pipeline.consumers p i) then
          rebuild p
            (List.filteri (fun j _ -> j <> i) (kernels_list p))
        else None)
      (List.init n Fun.id)

(* Rewire every consumer tap of kernel [i]'s image either to one of the
   kernel's own inputs (keeping offset and border) or, when it reads
   nothing, to a constant — then drop the kernel. *)
let bypass p () =
  let n = Pipeline.num_kernels p in
  if n < 2 then []
  else
    List.filter_map
      (fun i ->
        let k = Pipeline.kernel p i in
        if Iset.is_empty (Pipeline.consumers p i) then None
        else begin
          let target = k.Kernel.name in
          let repl = List.nth_opt k.Kernel.inputs 0 in
          let rewrite e =
            Expr.subst_inputs
              (fun ~image ~dx ~dy ~border ->
                if image = target then
                  match repl with
                  | Some r -> Expr.Input { image = r; dx; dy; border }
                  | None -> Expr.const 0.5
                else Expr.Input { image; dx; dy; border })
              e
          in
          let kernels =
            List.filteri (fun j _ -> j <> i) (kernels_list p)
            |> List.map (fun (k' : Kernel.t) ->
                   set_kernel_expr k' (rewrite (kernel_expr k')))
          in
          if List.for_all Option.is_some kernels then
            rebuild p (List.map Option.get kernels)
          else None
        end)
      (List.init n Fun.id)

let shrink_bodies p () =
  List.concat_map
    (fun i ->
      let k = Pipeline.kernel p i in
      children (kernel_expr k)
      |> List.filter_map (fun sub ->
             if Expr.free_vars sub <> [] then None
             else
               Option.bind (set_kernel_expr k sub) (fun k' ->
                   rebuild p
                     (List.mapi
                        (fun j old -> if j = i then k' else old)
                        (kernels_list p)))))
    (List.init (Pipeline.num_kernels p) Fun.id)

let inline_params (p : Pipeline.t) () =
  if p.Pipeline.params = [] then []
  else begin
    let value name = List.assoc name p.Pipeline.params in
    let rec subst e =
      match e with
      | Expr.Param name -> Expr.const (value name)
      | Expr.Const _ | Expr.Input _ | Expr.Var _ -> e
      | Expr.Let { var; value = v; body } -> Expr.Let { var; value = subst v; body = subst body }
      | Expr.Unop (op, a) -> Expr.Unop (op, subst a)
      | Expr.Binop (op, a, b) -> Expr.Binop (op, subst a, subst b)
      | Expr.Select { cmp; lhs; rhs; if_true; if_false } ->
        Expr.Select
          {
            cmp;
            lhs = subst lhs;
            rhs = subst rhs;
            if_true = subst if_true;
            if_false = subst if_false;
          }
      | Expr.Shift { dx; dy; exchange; body } -> Expr.Shift { dx; dy; exchange; body = subst body }
    in
    let kernels =
      List.map (fun k -> set_kernel_expr k (subst (kernel_expr k))) (kernels_list p)
    in
    if List.for_all Option.is_some kernels then
      match rebuild ~params:[] p (List.map Option.get kernels) with
      | Some q -> [ q ]
      | None -> []
    else []
  end

let drop_unused_inputs (p : Pipeline.t) () =
  let read img =
    List.exists (fun k -> List.mem img (Expr.images (kernel_expr k))) (kernels_list p)
  in
  let used, unused = List.partition read p.Pipeline.inputs in
  if unused = [] then []
  else
    (* Keep at least one declared input so the shrunk pipeline stays in
       the shape everything downstream (DSL, CLI) expects. *)
    let inputs = if used = [] then [ List.hd p.Pipeline.inputs ] else used in
    if inputs = p.Pipeline.inputs then []
    else match rebuild ~inputs p (kernels_list p) with Some q -> [ q ] | None -> []

let halve_extent (p : Pipeline.t) () =
  let w = max 7 (p.Pipeline.width / 2) and h = max 7 (p.Pipeline.height / 2) in
  if w = p.Pipeline.width && h = p.Pipeline.height then []
  else match rebuild ~width:w ~height:h p (kernels_list p) with Some q -> [ q ] | None -> []

let halve_offsets p () =
  let total = ref 0 in
  let halve e =
    Expr.subst_inputs
      (fun ~image ~dx ~dy ~border ->
        total := !total + abs dx + abs dy;
        Expr.Input { image; dx = dx / 2; dy = dy / 2; border })
      e
  in
  let kernels =
    List.map (fun k -> set_kernel_expr k (halve (kernel_expr k))) (kernels_list p)
  in
  if !total = 0 || not (List.for_all Option.is_some kernels) then []
  else
    match rebuild p (List.map Option.get kernels) with Some q -> [ q ] | None -> []

let moves = [ drop_sinks; bypass; shrink_bodies; inline_params; drop_unused_inputs; halve_extent; halve_offsets ]

(* The most candidates one shrink tries. *)
let max_attempts = 1000

let run ~still_fails p0 =
  let attempts = ref 0 in
  let rec improve p =
    let next =
      List.find_map
        (fun move ->
          List.find_opt
            (fun q ->
              !attempts < max_attempts
              && begin
                   incr attempts;
                   still_fails q
                 end)
            (move p ()))
        moves
    in
    match next with
    | Some q when !attempts <= max_attempts -> improve q
    | _ -> p
  in
  improve p0
