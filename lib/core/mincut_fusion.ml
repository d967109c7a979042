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

(* Why Algorithm 1 splits a multi-kernel [block] whose legality check
   gave [legal]: [None] when it accepts the block, [Some reason] when it
   splits it, [reason] being [None] for a legal block with an
   unprofitable edge. *)
let clamp config edges block = function
  | Error r -> Some (Some r)
  | Ok () ->
    if
      List.exists
        (fun (r : Benefit.edge_report) ->
          Iset.mem r.src block && Iset.mem r.dst block && unprofitable config r)
        edges
    then Some None
    else None

(* Corruption point for the differential fuzzer: a triggered
   "cut.block_legal" admits the block unconditionally, making the
   recursion emit an illegal partition the legality oracle must catch. *)
let admit_fault () = Kfuse_util.Faults.fires "cut.block_legal"

let block_legal config p edges block =
  admit_fault () || Option.is_none (clamp config edges block (Legality.check config p block))

let weight_table edges =
  let table = Hashtbl.create (List.length edges * 2) in
  List.iter
    (fun (r : Benefit.edge_report) -> Hashtbl.replace table (r.src, r.dst) r.weight)
    edges;
  table

(* What Algorithm 1 does to one block of the working set: accept it,
   split it along a min cut, or, when it is already disconnected, split
   it into its weak components.  A pure function of the block, which is
   what lets independent blocks be decided on separate domains without
   changing any output. *)
type decision =
  | Accepted
  | Split of {
      reason : Legality.reason option;
      cut_weight : float;
      side_a : Iset.t;
      side_b : Iset.t;
    }
  | Components of Iset.t list

let decide config p g ~weight_of ~edges block =
  if Iset.cardinal block = 1 || admit_fault () then Accepted
  else
    (* One induced graph and one components walk serve both the
       connectivity test and the min cut. *)
    let sub = Digraph.induced g block in
    match Topo.undirected_components sub with
    | _ :: _ :: _ as parts -> Components parts
    | _ -> (
      match clamp config edges block (Legality.check_connected config p block) with
      | None -> Accepted
      | Some reason ->
        let wsub = Wgraph.of_digraph weight_of sub in
        let cut_weight, side = Stoer_wagner.min_cut wsub in
        Split { reason; cut_weight; side_a = side; side_b = Iset.diff block side })

(* A block of the recursion tree: once decided, the step it makes and
   the blocks that step leaves, side_a's first. *)
type node = { block : Iset.t; mutable step : step option; mutable kids : node list }

let node block = { block; step = None; kids = [] }

let cut n ~reason ~cut_weight ~side_a ~side_b =
  let a = node side_a and b = node side_b in
  n.step <- Some (Cut { block = n.block; reason; cut_weight; side_a; side_b });
  n.kids <- [ a; b ];
  (a, b)

(* Record decision [d] on [n]; the result is the blocks left to decide.
   A disconnected block with components c1..ck (ordered by smallest
   vertex) is cut as the paper's binary recursion would: c1 against
   c2..ck at zero cut weight, then c2..ck the same way, down to c(k-1)
   against ck.  Each union of trailing components gets the reason
   [Legality.check] would give it here, and is never decided (or looked
   up) on its own. *)
let expand p n = function
  | Accepted ->
    n.step <- Some (Accept n.block);
    []
  | Split { reason; cut_weight; side_a; side_b } ->
    let a, b = cut n ~reason ~cut_weight ~side_a ~side_b in
    [ a; b ]
  | Components parts ->
    let rec chain n = function
      | first :: rest ->
        let a, b =
          cut n
            ~reason:(Some (Legality.disconnected_reason p n.block))
            ~cut_weight:0.0 ~side_a:first ~side_b:(Iset.diff n.block first)
        in
        a :: (match rest with [ _ ] -> [ b ] | _ -> chain b rest)
      | [] -> assert false
    in
    chain n parts

(* The decided tree's steps in the order of the sequential depth-first
   algorithm, and its accepted blocks; both reversed. *)
let rec replay n (ready, steps) =
  let steps = Option.get n.step :: steps in
  match n.kids with
  | [] -> (n.block :: ready, steps)
  | kids -> List.fold_left (fun acc k -> replay k acc) (ready, steps) kids

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
     Decisions are kept in the tree and the depth-first replay below
     reads them, so the trace and partition are bit-identical to the
     sequential depth-first algorithm. *)
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
        | Some f -> List.map (fun n -> f n.block) frontier
      in
      let misses =
        List.concat_map
          (fun (n, c) -> match c with None -> [ n.block ] | Some _ -> [])
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
      waves (List.concat (List.map2 (expand p) frontier decided))
  in
  let all = Digraph.vertices g in
  let partition, steps =
    if Iset.is_empty all then ([], [])
    else begin
      let root = node all in
      waves [ root ];
      let ready, steps = replay root ([], []) in
      (List.rev ready, List.rev steps)
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
