module Iset = Kfuse_util.Iset
module Diag = Kfuse_util.Diag
module Faults = Kfuse_util.Faults
module Digraph = Kfuse_graph.Digraph
module Partition = Kfuse_graph.Partition
module Pipeline = Kfuse_ir.Pipeline
module Config = Kfuse_fusion.Config
module Benefit = Kfuse_fusion.Benefit
module Legality = Kfuse_fusion.Legality
module Mincut = Kfuse_fusion.Mincut_fusion
module Transform = Kfuse_fusion.Transform
module Fingerprint = Kfuse_cache.Fingerprint
module Lru = Kfuse_cache.Lru
module Kernel = Kfuse_ir.Kernel

let seam_fault = "lazy.seam"

type stats = {
  blocks_reused : int;
  blocks_replanned : int;
  edges_reused : int;
  edges_rescored : int;
  fell_back : bool;
}

type plan = {
  pipeline : Pipeline.t;
  partition : Partition.t;
  edges : Benefit.edge_report list;
  steps : Mincut.step list;
  objective : float;
  fused : Pipeline.t;
  fingerprint : string;
  stats : stats;
}

(* A stored decision is positional: [side_a] holds dense indices into
   the ascending enumeration of the block it was recorded for.  Equal
   subgraph fingerprints guarantee an order-preserving isomorphism
   between the recorded block and the block being looked up, so mapping
   the positions through the new block's own enumeration reconstructs
   exactly the side the fresh min cut would emit.  A disconnected
   block's components map the same way: the isomorphism keeps them
   weak components, and keeps their order by smallest vertex.

   A legality reason is kept the same way, the kernels it names as
   positions in the block (or, for an edge, in the pair).  What else an
   external dependence names is read off the current pipeline: an
   external output's consumer is the kernel's smallest consumer outside
   the block (fig. 2c), an external input's image the first image the
   kernel reads from outside (fig. 2d).  The key fixes which kernel
   that is, so a hit never runs a legality check. *)
type reason =
  | R_legal
  | R_not_connected
  | R_sinks of int list
  | R_output of int
  | R_input of int
  | R_global of int
  | R_resource of { fused_bytes : int; base_bytes : int; ratio : float }

type stored =
  | S_accept
  | S_split of { cut_weight : float; side_a : int list; reason : reason }
  | S_components of int list list

(* [pos v] is kernel [v]'s position in the block the reason is for. *)
let encode_reason pos = function
  | None -> R_legal
  | Some Legality.Not_connected -> R_not_connected
  | Some (Legality.Multiple_sinks vs) -> R_sinks (List.map pos vs)
  | Some (Legality.External_output { kernel; _ }) -> R_output (pos kernel)
  | Some (Legality.External_input { kernel; _ }) -> R_input (pos kernel)
  | Some (Legality.Global_kernel v) -> R_global (pos v)
  | Some (Legality.Resource { fused_bytes; base_bytes; ratio }) ->
    R_resource { fused_bytes; base_bytes; ratio }

(* [verts] enumerates [block] in ascending order. *)
let decode_reason (p : Pipeline.t) verts block = function
  | R_legal -> None
  | R_not_connected -> Some Legality.Not_connected
  | R_sinks ps -> Some (Legality.Multiple_sinks (List.map (Array.get verts) ps))
  | R_output i ->
    let kernel = verts.(i) in
    let consumer = Iset.min_elt (Iset.diff (Pipeline.consumers p kernel) block) in
    Some (Legality.External_output { kernel; consumer })
  | R_input i ->
    let kernel = verts.(i) in
    Some
      (Legality.External_input
         { kernel; image = Option.get (Legality.external_input p block kernel) })
  | R_global i -> Some (Legality.Global_kernel verts.(i))
  | R_resource { fused_bytes; base_bytes; ratio } ->
    Some (Legality.Resource { fused_bytes; base_bytes; ratio })

(* An edge's memoized report: its scenario, an illegal one's reason in
   pair positions, and the model's numbers. *)
type scenario = Legal of Benefit.scenario | Illegal of reason
type scored = { scenario : scenario; delta : float; phi : float; weight : float }

(* The most decisions, and the most edge weights, one session keeps.
   Edits that keep drawing new kernels make new block fingerprints
   forever; past the cap the least recently used entry goes.  A
   2,000-edit session of kfbench's lazy-edit holds about 2,700
   decisions and 660 edges, so it evicts none: an evicted block is
   decided again, which changes a reply's [replan] counters. *)
let memo_capacity = 8192

(* Per-kernel memos are keyed by the kernel value itself, compared
   physically: [Kernel.t] is an immutable private record, and the
   builder hands every flush the same value until an edit replaces it.
   A table keeps what this flush and the one before it used; [age],
   once per flush, drops the rest, so it holds about two pipelines'
   kernels whatever the session's length. *)
module Phys = Hashtbl.Make (struct
  type t = Kernel.t

  let equal = ( == )
  let hash (k : Kernel.t) = Hashtbl.hash k.Kernel.name
end)

type 'a recent = { mutable live : 'a Phys.t; mutable older : 'a Phys.t }

let recent () = { live = Phys.create 64; older = Phys.create 1 }

let age m =
  m.older <- m.live;
  m.live <- Phys.create (max 64 (Phys.length m.older))

let find m k =
  match Phys.find_opt m.live k with
  | Some _ as v -> v
  | None ->
    let v = Phys.find_opt m.older k in
    Option.iter (Phys.replace m.live k) v;
    v

(* A multi-kernel block's fused kernel is a function of its members, in
   ascending index order (they fix the inlining order), and of which of
   them leave the block (they fix the sink). *)
type fused = { members : Kernel.t array; leaving : bool array; kernel : Kernel.t }

type t = {
  config : Config.t;
  decisions : stored Lru.t;
  edge_memo : scored Lru.t;
  digests : (string list * string) recent;  (* input refs, kernel_digest *)
  defs : string recent;  (* kernel_def *)
  fused : fused recent;  (* keyed by the block's last member *)
  mutable last : plan option;
}

let create config =
  Config.validate config;
  {
    config;
    decisions = Lru.create ~capacity:memo_capacity ();
    edge_memo = Lru.create ~capacity:memo_capacity ();
    digests = recent ();
    defs = recent ();
    fused = recent ();
    last = None;
  }

let config t = t.config

let forget m =
  Phys.reset m.live;
  Phys.reset m.older

let clear t =
  Lru.clear t.decisions;
  Lru.clear t.edge_memo;
  forget t.digests;
  forget t.defs;
  forget t.fused;
  t.last <- None

let memo_size t = (Lru.length t.decisions, Lru.length t.edge_memo)
let last t = t.last

(* --- per-kernel memos ------------------------------------------------ *)

let digest t k refs =
  match find t.digests k with
  | Some (refs', h) when List.equal String.equal refs refs' -> h
  | _ ->
    let h = Fingerprint.kernel_digest k refs in
    Phys.replace t.digests.live k (refs, h);
    h

let def t k =
  match find t.defs k with
  | Some d -> d
  | None ->
    let d = Fingerprint.kernel_def k in
    Phys.replace t.defs.live k d;
    d

let kernel_hashes t p = Fingerprint.kernel_hashes ~digest:(digest t) p
let exact t p = Fingerprint.exact ~def:(def t) p

let fuse t (p : Pipeline.t) block =
  let verts = Array.of_list (Iset.elements block) in
  if Array.length verts = 1 then Transform.fuse_block p block
  else
    let members = Array.map (Pipeline.kernel p) verts in
    let sinks = Legality.block_sinks p block in
    let leaving = Array.map (fun v -> Iset.mem v sinks) verts in
    let key = members.(Array.length members - 1) in
    match find t.fused key with
    | Some f
      when Array.length f.members = Array.length members
           && Array.for_all2 ( == ) f.members members
           && f.leaving = leaving ->
      f.kernel
    | _ ->
      let kernel = Transform.fuse_block p block in
      Phys.replace t.fused.live key { members; leaving; kernel };
      kernel

(* --- edge memo ------------------------------------------------------ *)

(* [refs.(i)] is kernel [i]'s [Fingerprint.content_ref], rendered once
   per flush for every key below. *)
let edge_key ~space (p : Pipeline.t) refs u v =
  (* Everything [Benefit.edge_report] reads besides the session config:
     the endpoints' transitive content (hash.twin renders every mask,
     border mode, offset and upstream definition), the iteration space,
     and whether the producer has a consumer other than [v] — the one
     graph fact pair-legality (fig. 2c) depends on. *)
  let other = Iset.cardinal (Pipeline.consumers p u) > 1 in
  String.concat "" [ space; refs.(u); ">"; refs.(v); (if other then "|true" else "|false") ]

let score_edges t (p : Pipeline.t) refs =
  let space =
    Printf.sprintf "%dx%dx%d|" p.Pipeline.width p.Pipeline.height p.Pipeline.channels
  in
  let reused = ref 0 and rescored = ref 0 in
  let reports =
    List.map
      (fun (u, v) ->
        let key = edge_key ~space p refs u v in
        match Lru.find t.edge_memo key with
        | Some { scenario; delta; phi; weight } ->
          incr reused;
          let scenario =
            match scenario with
            | Legal s -> s
            | Illegal r ->
              let pair = Iset.of_list [ u; v ] in
              Benefit.Illegal (Option.get (decode_reason p [| u; v |] pair r))
          in
          {
            Benefit.src = u;
            dst = v;
            image = Pipeline.edge_image p u v;
            scenario;
            delta;
            phi;
            weight;
          }
        | None ->
          incr rescored;
          let r = Benefit.edge_report t.config p u v in
          let scenario =
            match r.Benefit.scenario with
            | Benefit.Illegal reason ->
              Illegal (encode_reason (fun k -> if k = u then 0 else 1) (Some reason))
            | s -> Legal s
          in
          let { Benefit.delta; phi; weight; _ } = r in
          Lru.put t.edge_memo key { scenario; delta; phi; weight };
          r)
      (Digraph.edges (Pipeline.dag p))
  in
  (reports, !reused, !rescored)

(* --- decision memo --------------------------------------------------- *)

let of_positions verts ps = List.fold_left (fun acc i -> Iset.add verts.(i) acc) Iset.empty ps

let lookup t p key block =
  match Lru.find t.decisions key with
  | None -> None
  | Some S_accept -> Some Mincut.Accepted
  | Some (S_split { cut_weight; side_a; reason }) ->
    let verts = Array.of_list (Iset.elements block) in
    let a = of_positions verts side_a in
    let reason = decode_reason p verts block reason in
    Some (Mincut.Split { reason; cut_weight; side_a = a; side_b = Iset.diff block a })
  | Some (S_components parts) ->
    let verts = Array.of_list (Iset.elements block) in
    Some (Mincut.Components (List.map (of_positions verts) parts))

(* [position_of block v] is [v]'s index in [block]'s ascending order. *)
let position_of block =
  let pos = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace pos v i) (Iset.elements block);
  Hashtbl.find pos

let record t key block (d : Mincut.decision) =
  let stored =
    match d with
    | Mincut.Accepted -> S_accept
    | Mincut.Split { cut_weight; side_a; reason; _ } ->
      let pos = position_of block in
      let side_a = List.map pos (Iset.elements side_a) in
      S_split { cut_weight; side_a; reason = encode_reason pos reason }
    | Mincut.Components parts ->
      let pos = position_of block in
      S_components (List.map (fun c -> List.map pos (Iset.elements c)) parts)
  in
  Lru.put t.decisions key stored

(* --- planning -------------------------------------------------------- *)

let plan_fingerprint t ~pipeline ~partition ~objective ~fused =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (exact t pipeline);
  (* each block as [Iset.pp] prints it *)
  List.iter
    (fun b ->
      Buffer.add_string buf "|{";
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf (string_of_int v))
        (Iset.elements b);
      Buffer.add_char buf '}')
    partition;
  Buffer.add_string buf (Printf.sprintf "|%h|" objective);
  Buffer.add_string buf (exact t fused);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let finish t p (r : Mincut.result) ~stats =
  match Transform.apply ~fuse:(fuse t p) p r.Mincut.partition with
  | exception Invalid_argument msg ->
    Error (Diag.errorf Diag.Invalid_partition "lazy replan: fused build failed: %s" msg)
  | fused ->
    let plan =
      {
        pipeline = p;
        partition = r.Mincut.partition;
        edges = r.Mincut.edges;
        steps = r.Mincut.steps;
        objective = r.Mincut.objective;
        fused;
        fingerprint =
          plan_fingerprint t ~pipeline:p ~partition:r.Mincut.partition
            ~objective:r.Mincut.objective ~fused;
        stats;
      }
    in
    t.last <- Some plan;
    Ok plan

let plan ?pool t p =
  try
    age t.digests;
    age t.defs;
    age t.fused;
    let refs = Array.map Fingerprint.content_ref (kernel_hashes t p) in
    (* A block that misses is looked up, decided, then recorded: keep
       the few keys of this flush's misses for [record]. *)
    let missed = ref [] in
    let key block =
      match List.find_opt (fun (b, _) -> Iset.equal b block) !missed with
      | Some (_, k) -> k
      | None -> Fingerprint.subgraph ~refs p block
    in
    let record block d = record t (key block) block d in
    let edges, edges_reused, edges_rescored = score_edges t p refs in
    let blocks_reused = ref 0 and blocks_replanned = ref 0 in
    let lookup block =
      let k = key block in
      match lookup t p k block with
      | Some _ as d ->
        incr blocks_reused;
        d
      | None ->
        incr blocks_replanned;
        missed := (block, k) :: !missed;
        None
    in
    let result = Mincut.run ?pool ~lookup ~record ~edges t.config p in
    (* Seam re-check: reused decisions are provably equivalent, but an
       incremental planner that silently returns a stale plan is the
       exact failure mode this module exists to prevent — the
       invariant is enforced, not assumed. *)
    let seam =
      if Faults.fires seam_fault then
        Error (Diag.errorf Diag.Fault_injected "seam re-check fault (%s)" seam_fault)
      else Legality.check_partition t.config p result.Mincut.partition
    in
    match seam with
    | Ok () ->
      finish t p result
        ~stats:
          {
            blocks_reused = !blocks_reused;
            blocks_replanned = !blocks_replanned;
            edges_reused;
            edges_rescored;
            fell_back = false;
          }
    | Error _ ->
      (* Degrade: the memo can no longer be trusted.  Drop it and
         replan this flush from scratch (repopulating both memos). *)
      Lru.clear t.decisions;
      Lru.clear t.edge_memo;
      missed := [];
      let edges, _, edges_rescored = score_edges t p refs in
      let decided = ref 0 in
      let record block d =
        incr decided;
        record block d
      in
      let result = Mincut.run ?pool ~record ~edges t.config p in
      (match Legality.check_partition t.config p result.Mincut.partition with
      | Error d -> Error d
      | Ok () ->
        finish t p result
          ~stats:
            {
              blocks_reused = 0;
              blocks_replanned = !decided;
              edges_reused = 0;
              edges_rescored;
              fell_back = true;
            })
  with
  | Faults.Fault { point; hit } ->
    Error (Diag.errorf Diag.Fault_injected "fault at %s (hit %d)" point hit)
  | Invalid_argument msg -> Error (Diag.errorf Diag.Strategy_failed "lazy replan: %s" msg)

let scratch ?pool config p = plan ?pool (create config) p
