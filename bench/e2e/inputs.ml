(* Seeded inputs of the four workloads.  Everything a daemon receives is
   generated here from the workload seed, so one seed gives the same
   requests to the client loop and to the traced in-process replay. *)

module Rng = Kfuse_util.Rng
module Ir = Kfuse_ir

(* Input sizes.  [full] is what BENCHMARK.json measures; [smoke] is the
   runtest configuration (256², a 12-kernel lazy DAG, a small pool). *)
type size = {
  side : int;  (* paper-exec extent *)
  stream_side : int;  (* motion-stream extent *)
  lazy_chains : int;  (* 6 kernels each *)
  pool : int;  (* plan-mix repeat pool *)
  max_kernels : int;  (* plan-mix DAG size bound *)
}

let full = { side = 1024; stream_side = 512; lazy_chains = 8; pool = 200; max_kernels = 24 }
let smoke = { side = 256; stream_side = 256; lazy_chains = 2; pool = 20; max_kernels = 12 }

(* A derived seed: independent streams for independent uses of one
   workload seed.  Hashtbl.hash is deterministic across runs. *)
let sub seed tag = Hashtbl.hash (seed, tag)

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ---- paper-exec ---- *)

let apps = [| "harris"; "sobel"; "unsharp"; "shitomasi"; "enhance"; "night" |]

(* The input-synthesis seed the daemon receives for [app]; fixed for the
   whole run, so every measured reply must equal the verified one. *)
let input_seed seed app = sub seed ("input:" ^ app) mod 1_000_000

(* ---- motion-stream ---- *)

let streams = 2
let stream_seed seed i = sub seed ("stream" ^ string_of_int i) mod 1_000_000

(* ---- plan-mix ---- *)

type dag = { text : string; renamed : string }

let unparse p =
  match Kfuse_dsl.Unparse.pipeline p with
  | Ok s -> s
  | Error e -> failwith ("kfbench: generated pipeline does not unparse: " ^ e)

(* Same structure, every kernel renamed: the plan cache files it under the
   original's structural slot and counts it as an iso-miss. *)
let rename (p : Ir.Pipeline.t) =
  let ren n = if List.mem n p.Ir.Pipeline.inputs then n else "r_" ^ n in
  Ir.Pipeline.create ~name:p.Ir.Pipeline.name ~width:p.Ir.Pipeline.width
    ~height:p.Ir.Pipeline.height ~channels:p.Ir.Pipeline.channels
    ~params:p.Ir.Pipeline.params ~inputs:p.Ir.Pipeline.inputs
    (List.map
       (fun (k : Ir.Kernel.t) ->
         let op =
           match k.Ir.Kernel.op with
           | Ir.Kernel.Map e -> Ir.Kernel.Map (Ir.Expr.rename_images ren e)
           | Ir.Kernel.Reduce r ->
             Ir.Kernel.Reduce { r with arg = Ir.Expr.rename_images ren r.arg }
         in
         Ir.Kernel.create ~name:(ren k.Ir.Kernel.name)
           ~inputs:(List.map ren k.Ir.Kernel.inputs) op)
       (Array.to_list p.Ir.Pipeline.kernels))

(* The repeat pool: DAG [i] has exactly [2 + i mod (max_kernels - 1)]
   kernels, so every seed draws the same size mix and only the shapes
   differ. *)
let pool size seed =
  let span = size.max_kernels - 1 in
  Array.init size.pool (fun i ->
      let want = 2 + (i mod span) in
      let rec find j =
        let p =
          Kfuse_fuzz.Gen.case ~max_kernels:size.max_kernels ~seed:(sub seed "pool")
            ((i * 1000) + j)
        in
        if Ir.Pipeline.num_kernels p = want || j >= 999 then p else find (j + 1)
      in
      let p = find 0 in
      { text = unparse p; renamed = unparse (rename p) })

(* One plan-mix request: 60% a repeat of a pool DAG, 20% its renamed
   copy, 20% a DAG never sent before.  Each block of ten requests holds
   exactly that mix, in a seeded order. *)
type draw = { cls : string; text : string; original : string option }

let mix = [| 0; 0; 0; 0; 0; 0; 1; 1; 2; 2 |]

(* [draws size seed pool thread] is the request generator of client
   [thread]; each call yields the next request. *)
let draws size seed pool thread =
  let rng = Rng.create (sub seed ("plan-mix" ^ string_of_int thread)) in
  let fresh_seed = sub seed ("new" ^ string_of_int thread) in
  let fresh = ref 0 and block = ref [||] and k = ref 0 in
  fun () ->
    if !k = Array.length !block then begin
      block := shuffle rng mix;
      k := 0
    end;
    let kind = !block.(!k) in
    incr k;
    let (d : dag) = pool.(Rng.int rng (Array.length pool)) in
    match kind with
    | 0 -> { cls = "repeat"; text = d.text; original = None }
    | 1 -> { cls = "renamed"; text = d.renamed; original = Some d.text }
    | _ ->
      let p = Kfuse_fuzz.Gen.case ~max_kernels:size.max_kernels ~seed:fresh_seed !fresh in
      incr fresh;
      { cls = "new"; text = unparse p; original = None }

(* ---- lazy-edit ---- *)

let lazy_side = 512

(* [chains] disconnected 6-kernel chains mixing stencils and point
   kernels, as in bench/exp_replan.ml: a single-kernel edit dirties one
   chain.  The seed varies the constants only, so every seed plans the
   same structure. *)
let lazy_source size seed =
  let rng = Rng.create (sub seed "lazy-dag") in
  let const () = 0.5 +. (Float.round (Rng.float rng 150.) /. 100.) in
  let b = Buffer.create 4096 in
  let inputs = List.init size.lazy_chains (Printf.sprintf "in%d") in
  Printf.bprintf b "pipeline edits(%s) {\n  size %d %d\n" (String.concat ", " inputs)
    lazy_side lazy_side;
  for c = 0 to size.lazy_chains - 1 do
    let k j = Printf.sprintf "c%d_%d" c j in
    Printf.bprintf b "  %s = conv(in%d, gauss3, mirror)\n" (k 0) c;
    Printf.bprintf b "  %s = %s * %g\n" (k 1) (k 0) (const ());
    Printf.bprintf b "  %s = conv(%s, gauss5, mirror)\n" (k 2) (k 1);
    Printf.bprintf b "  %s = %s + %s\n" (k 3) (k 2) (k 0);
    Printf.bprintf b "  %s = conv(%s, sobelx, mirror)\n" (k 4) (k 3);
    Printf.bprintf b "  %s = %s * %g + %s\n" (k 5) (k 4) (const ()) (k 2)
  done;
  Buffer.add_string b "}\n";
  Buffer.contents b

let edit_kinds = [| "param"; "retarget"; "append"; "delete" |]

(* The edit generator of one lazy session: each block of four edits
   holds every kind once, in a seeded order, on seeded chains.  It tracks
   each chain so that every edit applies: a retarget flips the chain's
   last kernel between reading [c_2] and [c_0], and a chain carries at
   most one appended kernel, so an append on a chain that has one becomes
   its delete and vice versa. *)
let edits size seed =
  let rng = Rng.create (sub seed "lazy-edits") in
  let retargeted = Array.make size.lazy_chains false in
  let appended = Array.make size.lazy_chains None in
  let counter = ref 0 and block = ref [||] and i = ref 0 in
  let factor () = 1.0 +. (Float.round (Rng.float rng 100.) /. 100.) in
  fun () ->
    if !i = Array.length !block then begin
      block := shuffle rng edit_kinds;
      i := 0
    end;
    let kind = !block.(!i) in
    incr i;
    let c = Rng.int rng size.lazy_chains in
    let k j = Printf.sprintf "c%d_%d" c j in
    match (kind, appended.(c)) with
    | "param", _ -> ("param", Printf.sprintf "param gain%d %g" c (factor ()))
    | "retarget", _ ->
      let from_, to_ = if retargeted.(c) then (k 0, k 2) else (k 2, k 0) in
      retargeted.(c) <- not retargeted.(c);
      ("retarget", Printf.sprintf "retarget %s %s %s" (k 5) from_ to_)
    | _, None ->
      let name = Printf.sprintf "x%d_%d" c !counter in
      incr counter;
      appended.(c) <- Some name;
      ("append", Printf.sprintf "add %s = %s * %g" name (k 5) (factor ()))
    | _, Some name ->
      appended.(c) <- None;
      ("delete", "del " ^ name)
