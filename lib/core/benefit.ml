module Iset = Kfuse_util.Iset
module Digraph = Kfuse_graph.Digraph
module Pipeline = Kfuse_ir.Pipeline
module Kernel = Kfuse_ir.Kernel
module Cost = Kfuse_ir.Cost

type scenario =
  | Illegal of Legality.reason
  | Point_based
  | Point_to_local
  | Local_to_local

type edge_report = {
  src : int;
  dst : int;
  image : string;
  scenario : scenario;
  delta : float;
  phi : float;
  weight : float;
}

let delta_reg (config : Config.t) is = is *. config.tg
let delta_shared (config : Config.t) is = is *. config.tg /. config.ts

let grown_mask_area ~sz_src ~sz_dst =
  let isqrt n =
    let r = int_of_float (Float.sqrt (float_of_int n)) in
    if (r + 1) * (r + 1) <= n then r + 1 else r
  in
  let side = isqrt sz_dst + (isqrt sz_src / 2 * 2) in
  side * side

let is_ks (config : Config.t) (p : Pipeline.t) u =
  let k = Pipeline.kernel p u in
  Config.is_of config p *. float_of_int (List.length k.Kernel.inputs)

let require_edge (p : Pipeline.t) u v =
  if not (Digraph.mem_edge (Pipeline.dag p) u v) then
    invalid_arg (Printf.sprintf "Benefit: (%d, %d) is not a pipeline edge" u v)

let scenario config (p : Pipeline.t) u v =
  require_edge p u v;
  match Legality.check config p (Iset.of_list [ u; v ]) with
  | Error r -> Illegal r
  | Ok () -> (
    let ks = Pipeline.kernel p u and kd = Pipeline.kernel p v in
    match (Kernel.pattern ks, Kernel.pattern kd) with
    | _, Kernel.Point -> Point_based
    | Kernel.Point, Kernel.Local _ -> Point_to_local
    | Kernel.Local _, Kernel.Local _ -> Local_to_local
    | Kernel.Global, _ | _, Kernel.Global ->
      (* Unreachable: pairs containing a global kernel fail legality. *)
      assert false)

let edge_report config (p : Pipeline.t) u v =
  let image = Pipeline.edge_image p u v in
  let sc = scenario config p u v in
  let is_ie = Config.is_of config p in
  let cost_op_ks () =
    Cost.cost_op ~c_alu:config.Config.c_alu ~c_sfu:config.Config.c_sfu
      (Cost.kernel_op_counts (Pipeline.kernel p u))
  in
  let delta, phi =
    match sc with
    | Illegal _ -> (0.0, 0.0)
    | Point_based -> (delta_reg config is_ie, 0.0)
    | Point_to_local ->
      let sz_kd = Kernel.mask_area (Pipeline.kernel p v) in
      (delta_reg config is_ie, cost_op_ks () *. is_ks config p u *. float_of_int sz_kd)
    | Local_to_local ->
      let sz_ks = Kernel.mask_area (Pipeline.kernel p u) in
      let sz_kd = Kernel.mask_area (Pipeline.kernel p v) in
      let g = grown_mask_area ~sz_src:sz_ks ~sz_dst:sz_kd in
      (delta_shared config is_ie, cost_op_ks () *. is_ks config p u *. float_of_int g)
  in
  let weight =
    match sc with
    | Illegal _ -> config.Config.epsilon
    | Point_based | Point_to_local | Local_to_local ->
      Float.max (delta -. phi +. config.Config.gamma) config.Config.epsilon
  in
  { src = u; dst = v; image; scenario = sc; delta; phi; weight }

let edge_weight config p u v = (edge_report config p u v).weight

let all_edges ?(pool = Kfuse_util.Pool.serial) config p =
  (* Each edge's report is a pure function of the (immutable) pipeline,
     so the reports can be scored on any domain; map_list preserves the
     (src, dst) order of [Digraph.edges]. *)
  Digraph.edges (Pipeline.dag p)
  |> Kfuse_util.Pool.map_list pool (fun (u, v) -> edge_report config p u v)

let scenario_to_string = function
  | Illegal _ -> "illegal"
  | Point_based -> "point-based"
  | Point_to_local -> "point-to-local"
  | Local_to_local -> "local-to-local"

let pp_report ppf r =
  Format.fprintf ppf "%d -> %d (%s): %s, delta=%.3f phi=%.3f w=%.3f" r.src r.dst
    r.image (scenario_to_string r.scenario) r.delta r.phi r.weight
