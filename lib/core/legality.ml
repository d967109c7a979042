module Iset = Kfuse_util.Iset
module Imap = Kfuse_util.Imap
module Digraph = Kfuse_graph.Digraph
module Topo = Kfuse_graph.Topo
module Pipeline = Kfuse_ir.Pipeline
module Kernel = Kfuse_ir.Kernel
module Cost = Kfuse_ir.Cost

type reason =
  | Not_connected
  | Multiple_sinks of int list
  | External_output of { kernel : int; consumer : int }
  | External_input of { kernel : int; image : string }
  | Global_kernel of int
  | Resource of { fused_bytes : int; base_bytes : int; ratio : float }

let validate_block (p : Pipeline.t) block =
  if Iset.is_empty block then invalid_arg "Legality: empty block";
  Iset.iter
    (fun i ->
      if i < 0 || i >= Pipeline.num_kernels p then
        invalid_arg (Printf.sprintf "Legality: kernel index %d out of range" i))
    block

let block_sources (p : Pipeline.t) block =
  let g = Pipeline.dag p in
  Iset.filter (fun v -> Iset.is_empty (Iset.inter (Digraph.preds g v) block)) block

let block_sinks (p : Pipeline.t) block =
  let g = Pipeline.dag p in
  Iset.filter
    (fun v ->
      let succs = Digraph.succs g v in
      Iset.is_empty succs || not (Iset.subset succs block))
    block

(* Accumulated downstream stencil footprint D(v): the window of positions
   around the current pixel at which kernel [v]'s value is needed to
   compute the block's output pixel.  D(sink) is the single point;
   otherwise the union over in-block consumers c of (c's access window on
   v's output) + D(c) (Minkowski sum — Eq. 9 in window form). *)
let downstream_footprints (p : Pipeline.t) block =
  let module Fp = Kfuse_ir.Footprint in
  let g = Pipeline.dag p in
  (* Kernels are stored in topological order, so descending indices
     visit every consumer before its producers. *)
  let order = List.rev (Iset.elements block) in
  List.fold_left
    (fun acc v ->
      let d =
        Iset.fold
          (fun c best ->
            let consumer = Pipeline.kernel p c in
            let w =
              match
                List.assoc_opt (Pipeline.kernel p v).Kernel.name
                  (Fp.of_kernel consumer)
              with
              | Some w -> w
              | None -> Fp.point
            in
            Fp.union best (Fp.sum w (Imap.find_or ~default:Fp.point c acc)))
          (Iset.inter (Digraph.succs g v) block) Fp.point
      in
      Imap.add v d acc)
    Imap.empty order

let fused_shared_bytes (config : Config.t) (p : Pipeline.t) block =
  let module Fp = Kfuse_ir.Footprint in
  validate_block p block;
  let d = downstream_footprints p block in
  (* One tile per image read with a window by some in-block kernel; the
     tile covers the reader's window extended by the reader's own
     downstream accumulation. *)
  let tiles =
    Iset.fold
      (fun v acc ->
        let dv = Imap.find_or ~default:Fp.point v d in
        List.fold_left
          (fun acc (image, w) ->
            if Fp.is_point w then acc
            else begin
              let window = Fp.sum w dv in
              match List.assoc_opt image acc with
              | Some _ ->
                List.map
                  (fun (i, w0) ->
                    if String.equal i image then (i, Fp.union w0 window) else (i, w0))
                  acc
              | None -> (image, window) :: acc
            end)
          acc
          (Fp.of_kernel (Pipeline.kernel p v)))
      block []
  in
  List.fold_left
    (fun total (_, window) -> total + Cost.tile_bytes_window config.Config.block window)
    0 tiles

let source_inputs (p : Pipeline.t) sources =
  Iset.fold (fun s acc -> (Pipeline.kernel p s).Kernel.inputs @ acc) sources []

(* The first image kernel [v] reads that is neither made in [block] nor
   read by one of its sources ([allowed]): Figure 2d. *)
let foreign_input (p : Pipeline.t) block ~allowed v =
  List.find_opt
    (fun image ->
      let produced_inside =
        match Pipeline.producer p image with Some i -> Iset.mem i block | None -> false
      in
      not (produced_inside || List.mem image allowed))
    (Pipeline.kernel p v).Kernel.inputs

let check_dependence (p : Pipeline.t) block =
  let g = Pipeline.dag p in
  let leaving =
    Iset.filter
      (fun v ->
        let succs = Digraph.succs g v in
        Iset.is_empty succs || not (Iset.subset succs block))
      block
  in
  if Iset.cardinal leaving > 1 then begin
    (* Prefer the Figure 2c diagnosis: an output consumed both inside and
       outside the block.  Otherwise the block simply has several
       independent outputs. *)
    let fig2c =
      Iset.fold
        (fun v acc ->
          match acc with
          | Some _ -> acc
          | None ->
            let succs = Digraph.succs g v in
            let outside = Iset.diff succs block in
            if (not (Iset.is_empty outside)) && not (Iset.is_empty (Iset.inter succs block))
            then Some (v, Iset.min_elt outside)
            else None)
        leaving None
    in
    match fig2c with
    | Some (kernel, consumer) -> Error (External_output { kernel; consumer })
    | None -> Error (Multiple_sinks (Iset.elements leaving))
  end
  else begin
    let sources = block_sources p block in
    let allowed = source_inputs p sources in
    let violation =
      Iset.fold
        (fun v acc ->
          match acc with
          | Some _ -> acc
          | None ->
            if Iset.mem v sources then None
            else
              Option.map
                (fun image -> External_input { kernel = v; image })
                (foreign_input p block ~allowed v))
        block None
    in
    match violation with Some r -> Error r | None -> Ok ()
  end

let external_input p block v =
  foreign_input p block ~allowed:(source_inputs p (block_sources p block)) v

let check_resource config (p : Pipeline.t) block =
  let shared_users =
    Iset.filter (fun v -> Kernel.uses_shared_memory (Pipeline.kernel p v)) block
  in
  if Iset.is_empty shared_users then Ok ()
  else begin
    let base_bytes =
      Iset.fold
        (fun v acc -> max acc (Cost.kernel_shared_bytes config.Config.block (Pipeline.kernel p v)))
        shared_users 0
    in
    let fused_bytes = fused_shared_bytes config p block in
    let ratio = float_of_int fused_bytes /. float_of_int base_bytes in
    if ratio <= config.Config.c_mshared then Ok ()
    else Error (Resource { fused_bytes; base_bytes; ratio })
  end

let first_global (p : Pipeline.t) block =
  Iset.min_elt_opt (Iset.filter (fun v -> Kernel.is_global (Pipeline.kernel p v)) block)

let disconnected_reason p block =
  match first_global p block with Some v -> Global_kernel v | None -> Not_connected

let check_with ~connected config (p : Pipeline.t) block =
  validate_block p block;
  if Iset.cardinal block = 1 then Ok ()
  else begin
    match first_global p block with
    | Some v -> Error (Global_kernel v)
    | None ->
      if not (connected ()) then Error Not_connected
      else begin
        match check_dependence p block with
        | Error _ as e -> e
        | Ok () -> check_resource config p block
      end
  end

let check config p block =
  let connected () = Topo.is_weakly_connected (Pipeline.dag p) block in
  check_with ~connected config p block

let check_connected config p block = check_with ~connected:(fun () -> true) config p block

let is_legal config p block = match check config p block with Ok () -> true | Error _ -> false

let name_of p i = (Pipeline.kernel p i).Kernel.name

let reason_to_string p = function
  | Not_connected -> "block is not connected"
  | Multiple_sinks vs ->
    Printf.sprintf "multiple outputs leave the block: %s"
      (String.concat ", " (List.map (name_of p) vs))
  | External_output { kernel; consumer } ->
    Printf.sprintf "external output dependence: %s is also consumed by %s outside the block"
      (name_of p kernel) (name_of p consumer)
  | External_input { kernel; image } ->
    Printf.sprintf "external input dependence: %s reads %s which is not a source input"
      (name_of p kernel) image
  | Global_kernel v -> Printf.sprintf "global kernel %s cannot be fused" (name_of p v)
  | Resource { fused_bytes; base_bytes; ratio } ->
    Printf.sprintf
      "shared memory would grow from %d to %d bytes (x%.2f, above c_Mshared)"
      base_bytes fused_bytes ratio

(* Whole-partition invariant: structurally a partition of the DAG
   (disjoint, covering, no empties) and every block legal to fuse —
   the contract any strategy's output must meet before the transform is
   allowed to rewrite the pipeline.  [Partition.validate] rules out the
   inputs on which [check] would raise (empty blocks, foreign indices),
   so this never raises. *)
let check_partition config (p : Pipeline.t) partition =
  let module Diag = Kfuse_util.Diag in
  let module Partition = Kfuse_graph.Partition in
  let g = Pipeline.dag p in
  match Partition.validate g partition with
  | Error defect ->
    Error
      (Diag.errorf Diag.Invalid_partition "partition of pipeline %S is malformed: %s"
         p.Pipeline.name
         (Partition.invalid_to_string defect))
  | Ok () -> (
    let first_illegal =
      List.find_map
        (fun block ->
          match check config p block with
          | Ok () -> None
          | Error reason -> Some (block, reason))
        partition
    in
    match first_illegal with
    | None -> Ok ()
    | Some (block, reason) ->
      Error
        (Diag.errorf Diag.Invalid_partition
           "partition of pipeline %S has an illegal block {%s}: %s" p.Pipeline.name
           (String.concat ", " (List.map (name_of p) (Iset.elements block)))
           (reason_to_string p reason)))
