module Iset = Kfuse_util.Iset
module Digraph = Kfuse_graph.Digraph
module Topo = Kfuse_graph.Topo
module Wgraph = Kfuse_graph.Wgraph
module Stoer_wagner = Kfuse_graph.Stoer_wagner
module Partition = Kfuse_graph.Partition
module Pipeline = Kfuse_ir.Pipeline

type step =
  | Accept of Iset.t
  | Cut of {
      block : Iset.t;
      reason : Legality.reason option;
      cut_weight : float;
      side_a : Iset.t;
      side_b : Iset.t;
    }

type result = {
  partition : Partition.t;
  edges : Benefit.edge_report list;
  steps : step list;
  objective : float;
}

let unprofitable (config : Config.t) (r : Benefit.edge_report) =
  match r.scenario with
  | Benefit.Illegal _ -> false
  | Benefit.Point_based | Benefit.Point_to_local | Benefit.Local_to_local ->
    r.delta -. r.phi +. config.gamma <= 0.0

(* Why Algorithm 1 splits [block]: [None] when it accepts the block,
   [Some reason] when it splits it, [reason] being [None] for a legal
   block with an unprofitable edge. *)
let split_reason config p edges block =
  (* Corruption point for the differential fuzzer: a triggered
     "cut.block_legal" admits the block unconditionally, making the
     recursion emit an illegal partition the legality oracle must catch. *)
  if Kfuse_util.Faults.fires "cut.block_legal" then None
  else
    match Legality.check config p block with
    | Error r -> Some (Some r)
    | Ok () ->
      if
        List.exists
          (fun (r : Benefit.edge_report) ->
            Iset.mem r.src block && Iset.mem r.dst block && unprofitable config r)
          edges
      then Some None
      else None

let block_legal config p edges block = Option.is_none (split_reason config p edges block)

let weight_table edges =
  let table = Hashtbl.create (List.length edges * 2) in
  List.iter
    (fun (r : Benefit.edge_report) -> Hashtbl.replace table (r.src, r.dst) r.weight)
    edges;
  table

(* What Algorithm 1 does to one block of the working set: accept it, or
   split it along a min cut (or into weak components when it is already
   disconnected).  A pure function of the block, which is what lets
   independent blocks be decided on separate domains without changing
   any output. *)
type decision =
  | Accepted
  | Split of {
      reason : Legality.reason option;
      cut_weight : float;
      side_a : Iset.t;
      side_b : Iset.t;
    }

let decide config p g ~weight_of ~edges block =
  match if Iset.cardinal block = 1 then None else split_reason config p edges block with
  | None -> Accepted
  | Some reason ->
    let sub = Digraph.induced g block in
    match Topo.undirected_components sub with
    | [] -> assert false
    | [ _ ] ->
      let wsub = Wgraph.of_digraph weight_of sub in
      let cut_weight, side = Stoer_wagner.min_cut wsub in
      Split { reason; cut_weight; side_a = side; side_b = Iset.diff block side }
    | first :: others ->
      (* A disconnected block (possible when a cut separates a hub):
         split into weak components at zero cut cost. *)
      let side_b = List.fold_left Iset.union Iset.empty others in
      Split { reason; cut_weight = 0.0; side_a = first; side_b }

let run ?(pool = Kfuse_util.Pool.serial) ?(deadline = Kfuse_util.Deadline.none) ?lookup
    ?record ?edges config (p : Pipeline.t) =
  Config.validate config;
  let g = Pipeline.dag p in
  let edges =
    match edges with Some e -> e | None -> Benefit.all_edges ~pool config p
  in
  let weights = weight_table edges in
  let weight_of u v =
    match Hashtbl.find_opt weights (u, v) with
    | Some w -> w
    | None -> invalid_arg "Mincut_fusion: missing edge weight"
  in
  let decide = decide config p g ~weight_of ~edges in
  (* Evaluate the recursion tree in breadth-first waves: all undecided
     blocks of a wave are independent, so they are decided in parallel.
     Decisions are memoized by block and the serial traversal below
     replays them, so the trace and partition are bit-identical to the
     sequential depth-first algorithm. *)
  let decisions : (int list, decision) Hashtbl.t = Hashtbl.create 16 in
  (* Cross-run memoization hooks (incremental replanning): [lookup] is
     consulted serially for every block of a wave; misses are decided in
     parallel as usual and offered to [record], also serially, so the
     callbacks never run off the calling domain.  The contract is strict:
     [lookup] must return exactly the decision [decide] would compute —
     the replanner guarantees it by keying on a fingerprint of everything
     [decide] reads (see {!Kfuse_cache.Fingerprint.subgraph}). *)
  let rec waves frontier =
    match frontier with
    | [] -> ()
    | _ ->
      (* The recursion's natural yield point: between waves nothing is
         half-done, so an expired budget aborts here and the driver can
         degrade to the baseline partition. *)
      Kfuse_util.Deadline.check deadline;
      let cached =
        match lookup with
        | None -> List.map (fun _ -> None) frontier
        | Some f -> List.map f frontier
      in
      let misses =
        List.concat_map
          (fun (block, c) -> match c with None -> [ block ] | Some _ -> [])
          (List.combine frontier cached)
      in
      let fresh = Kfuse_util.Pool.map_list pool decide misses in
      (match record with
      | None -> ()
      | Some r -> List.iter2 r misses fresh);
      let decided =
        let rec merge cached fresh =
          match (cached, fresh) with
          | [], [] -> []
          | Some d :: rest, fresh -> d :: merge rest fresh
          | None :: rest, d :: fresh -> d :: merge rest fresh
          | _ -> assert false
        in
        merge cached fresh
      in
      let next =
        List.concat_map
          (function Accepted -> [] | Split { side_a; side_b; _ } -> [ side_a; side_b ])
          decided
      in
      List.iter2
        (fun block d -> Hashtbl.replace decisions (Iset.elements block) d)
        frontier decided;
      waves next
  in
  (* Working set as a FIFO queue; ready blocks accumulate. *)
  let rec loop work ready steps =
    match work with
    | [] -> (List.rev ready, List.rev steps)
    | block :: rest -> (
      match Hashtbl.find decisions (Iset.elements block) with
      | Accepted -> loop rest (block :: ready) (Accept block :: steps)
      | Split { reason; cut_weight; side_a; side_b } ->
        let step = Cut { block; reason; cut_weight; side_a; side_b } in
        loop (side_a :: side_b :: rest) ready (step :: steps))
  in
  let all = Digraph.vertices g in
  let partition, steps =
    if Iset.is_empty all then ([], [])
    else begin
      waves [ all ];
      loop [ all ] [] []
    end
  in
  let partition = Partition.normalize partition in
  let objective = Partition.objective weight_of g partition in
  { partition; edges; steps; objective }

let partition config p = (run config p).partition

let pp_step (p : Pipeline.t) ppf step =
  let name i = (Pipeline.kernel p i).Kfuse_ir.Kernel.name in
  let pp_block ppf b =
    Format.fprintf ppf "{%s}" (String.concat ", " (List.map name (Iset.elements b)))
  in
  match step with
  | Accept b -> Format.fprintf ppf "accept %a" pp_block b
  | Cut { block; reason; cut_weight; side_a; side_b } ->
    Format.fprintf ppf "cut %a (w=%.3f%s) -> %a | %a" pp_block block cut_weight
      (match reason with
      | None -> ""
      | Some r -> Printf.sprintf "; %s" (Legality.reason_to_string p r))
      pp_block side_a pp_block side_b
