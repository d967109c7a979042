module Iset = Kfuse_util.Iset
module Digraph = Kfuse_graph.Digraph
module Topo = Kfuse_graph.Topo
module Partition = Kfuse_graph.Partition
module Pipeline = Kfuse_ir.Pipeline
module Kernel = Kfuse_ir.Kernel
module Expr = Kfuse_ir.Expr

let fuse_block ?(exchange = true) (p : Pipeline.t) block =
  if Iset.is_empty block then invalid_arg "Transform.fuse_block: empty block";
  let sinks = Legality.block_sinks p block in
  let sink =
    match Iset.elements sinks with
    | [ s ] -> s
    | _ ->
      invalid_arg
        (Printf.sprintf "Transform.fuse_block: block %s has no unique sink"
           (Format.asprintf "%a" Iset.pp block))
  in
  if Iset.cardinal block = 1 then Pipeline.kernel p sink
  else begin
    let g = Digraph.induced (Pipeline.dag p) block in
    let order = Topo.sort g in
    (* Map from in-block image name to its inlined body expression. *)
    let inlined = Hashtbl.create 8 in
    (* Register names must not collide with (or be shadowed by) any Let
       binder already present in the block's kernels. *)
    let taken = Hashtbl.create 8 in
    Iset.iter
      (fun v ->
        match (Pipeline.kernel p v).Kernel.op with
        | Kernel.Map e | Kernel.Reduce { arg = e; _ } ->
          let rec collect e =
            match e with
            | Expr.Let { var; value; body } ->
              Hashtbl.replace taken var ();
              collect value;
              collect body
            | Expr.Const _ | Expr.Param _ | Expr.Input _ | Expr.Var _ -> ()
            | Expr.Unop (_, a) -> collect a
            | Expr.Binop (_, a, b) ->
              collect a;
              collect b
            | Expr.Select { lhs; rhs; if_true; if_false; _ } ->
              List.iter collect [ lhs; rhs; if_true; if_false ]
            | Expr.Shift { body; _ } -> collect body
          in
          collect e)
      block;
    let fresh_counter = ref 0 in
    let rec fresh image =
      incr fresh_counter;
      let candidate = Printf.sprintf "reg_%s_%d" image !fresh_counter in
      if Hashtbl.mem taken candidate then fresh image
      else begin
        Hashtbl.replace taken candidate ();
        candidate
      end
    in
    (* Point accesses (offset 0) to an in-block producer read the value
       the producer computes for the very same pixel: keep it in a
       register.  The shared substitution helper handles register sharing
       for multi-use point reads, windowed recomputation, and the
       Shift-frame soundness rules. *)
    let inline_kernel v =
      let k = Pipeline.kernel p v in
      let body =
        match k.Kernel.op with
        | Kernel.Map e -> e
        | Kernel.Reduce _ ->
          invalid_arg
            (Printf.sprintf "Transform.fuse_block: global kernel %s in block" k.Kernel.name)
      in
      Substitute.inline_producers ~exchange ~fresh
        ~produced:(fun image -> Hashtbl.find_opt inlined image)
        body
    in
    List.iter
      (fun v ->
        let k = Pipeline.kernel p v in
        Hashtbl.replace inlined k.Kernel.name (inline_kernel v))
      order;
    let sink_kernel = Pipeline.kernel p sink in
    let fused_body = Hashtbl.find inlined sink_kernel.Kernel.name in
    Kernel.map ~name:sink_kernel.Kernel.name ~inputs:(Expr.images fused_body) fused_body
  end

let apply ?(exchange = true) ?fuse (p : Pipeline.t) partition =
  let g = Pipeline.dag p in
  if not (Partition.is_valid g partition) then
    invalid_arg "Transform.apply: invalid partition";
  let fuse = match fuse with Some f -> f | None -> fuse_block ~exchange p in
  let fused = List.map fuse (Partition.normalize partition) in
  Pipeline.with_kernels p fused
