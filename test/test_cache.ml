(* The plan cache: canonical fingerprints, the LRU, and the two-tier
   store.  The load-bearing properties:

   - the structural fingerprint is invariant under kernel renaming and
     parameter reordering (qcheck, random pipelines), while the exact
     fingerprint is not — so isomorphic-but-renamed requests are
     detected and recomputed, never translated;
   - any semantic change (size, constants, borders, config, strategy)
     changes the key;
   - a cached report is bit-identical (equal marshaled bytes) to a
     fresh [Driver.run_result], through both tiers;
   - disk corruption degrades to a miss, and degraded reports are
     never stored. *)

module F = Kfuse_fusion
module Cache = Kfuse_cache
module Expr = Kfuse_ir.Expr
module Kernel = Kfuse_ir.Kernel
module Pipeline = Kfuse_ir.Pipeline
module Mask = Kfuse_image.Mask
module Border = Kfuse_image.Border
module Faults = Kfuse_util.Faults

let config = F.Config.default

(* ---- random pipelines, with scalar params in some bodies ---- *)

let border_gen =
  QCheck.Gen.oneofl [ Border.Clamp; Border.Mirror; Border.Repeat; Border.Constant 0.5 ]

let kernels_gen =
  QCheck.Gen.(
    let* n = int_range 2 6 in
    let* seeds = list_repeat n (pair (int_range 0 3) (pair (int_range 0 100) border_gen)) in
    let kernels = ref [] in
    let names = ref [ "in" ] in
    List.iteri
      (fun i (kind, (pick, border)) ->
        let name = Printf.sprintf "k%d" i in
        let prev = List.nth !names (pick mod List.length !names) in
        let body =
          match kind with
          | 0 -> Expr.(input prev + (input "in" * Const 0.5))
          | 1 -> Expr.(input prev * input prev)
          | 2 -> Expr.((input prev * param "gain") + param "bias")
          | _ -> Expr.conv ~border Mask.gaussian_3x3 prev
        in
        let inputs = Expr.images body in
        kernels := Kernel.map ~name ~inputs body :: !kernels;
        names := name :: !names)
      seeds;
    return (List.rev !kernels))

let params = [ ("gain", 1.25); ("bias", -3.0) ]

let pipeline_of kernels =
  Pipeline.create ~name:"rand" ~width:13 ~height:11 ~params ~inputs:[ "in" ] kernels

let kernels_arb =
  QCheck.make kernels_gen ~print:(fun ks ->
      Format.asprintf "%a" Pipeline.pp (pipeline_of ks))

(* Rename every kernel (and its uses) with a collision-free mapping that
   also reverses the lexicographic order, and reverse the param list. *)
let renamed_pipeline kernels =
  let rename n = if n = "in" then n else Printf.sprintf "zz%03d" (99 - int_of_string (String.sub n 1 (String.length n - 1))) in
  let ks =
    List.map
      (fun (k : Kernel.t) ->
        let op =
          match k.Kernel.op with
          | Kernel.Map e -> Kernel.Map (Expr.rename_images rename e)
          | Kernel.Reduce { init; combine; arg } ->
            Kernel.Reduce { init; combine; arg = Expr.rename_images rename arg }
        in
        Kernel.create ~name:(rename k.Kernel.name) ~inputs:(List.map rename k.Kernel.inputs) op)
      kernels
  in
  Pipeline.create ~name:"other" ~width:13 ~height:11 ~params:(List.rev params)
    ~inputs:[ "in" ] ks

let prop_structural_rename_invariant =
  QCheck.Test.make ~name:"structural fingerprint survives renaming + param reorder"
    ~count:200 kernels_arb (fun ks ->
      let p = pipeline_of ks and q = renamed_pipeline ks in
      String.equal (Cache.Fingerprint.structural p) (Cache.Fingerprint.structural q))

let prop_exact_sees_renames =
  QCheck.Test.make ~name:"exact fingerprint distinguishes renamed pipelines" ~count:200
    kernels_arb (fun ks ->
      let p = pipeline_of ks and q = renamed_pipeline ks in
      not (String.equal (Cache.Fingerprint.exact p) (Cache.Fingerprint.exact q)))

let prop_structural_sees_edits =
  QCheck.Test.make ~name:"structural fingerprint distinguishes semantic edits" ~count:200
    kernels_arb (fun ks ->
      let p = pipeline_of ks in
      let wider =
        Pipeline.create ~name:"rand" ~width:14 ~height:11 ~params ~inputs:[ "in" ] ks
      in
      let retuned =
        Pipeline.create ~name:"rand" ~width:13 ~height:11
          ~params:[ ("gain", 1.25); ("bias", -2.0) ]
          ~inputs:[ "in" ] ks
      in
      let s = Cache.Fingerprint.structural p in
      (not (String.equal s (Cache.Fingerprint.structural wider)))
      && not (String.equal s (Cache.Fingerprint.structural retuned)))

(* ---- plan keys ---- *)

let test_plan_key_requests () =
  let p = Kfuse_apps.Harris.pipeline () in
  let key ?(config = config) ?(strategy = F.Driver.Mincut) ?optimize ?inline () =
    (Cache.Fingerprint.plan_key ~config ~strategy ?optimize ?inline p).Cache.Fingerprint.structural
  in
  let base = key () in
  Alcotest.(check bool) "same request, same key" true (String.equal base (key ()));
  Alcotest.(check bool) "strategy changes the key" false
    (String.equal base (key ~strategy:F.Driver.Greedy ()));
  Alcotest.(check bool) "config changes the key" false
    (String.equal base (key ~config:{ config with F.Config.tg = 100.0 } ()));
  Alcotest.(check bool) "optimize changes the key" false
    (String.equal base (key ~optimize:true ()));
  Alcotest.(check bool) "inline changes the key" false
    (String.equal base (key ~inline:true ()))

(* ---- LRU ---- *)

let test_lru () =
  let l = Cache.Lru.create ~capacity:2 () in
  Cache.Lru.put l "a" 1;
  Cache.Lru.put l "b" 2;
  Alcotest.(check (option int)) "find a" (Some 1) (Cache.Lru.find l "a");
  (* "a" is now most recent, so inserting "c" evicts "b". *)
  Cache.Lru.put l "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Cache.Lru.find l "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Cache.Lru.find l "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Cache.Lru.find l "c");
  Alcotest.(check (list string)) "MRU order" [ "c"; "a" ] (Cache.Lru.keys l);
  let c = Cache.Lru.counters l in
  Alcotest.(check int) "hits" 3 c.Cache.Lru.hits;
  Alcotest.(check int) "misses" 1 c.Cache.Lru.misses;
  Alcotest.(check int) "evictions" 1 c.Cache.Lru.evictions

(* ---- the cache proper ---- *)

let with_temp_dir = Support.with_temp_dir

let fresh_report p =
  match F.Driver.run_result config F.Driver.Mincut p with
  | Ok r -> r
  | Error d -> Alcotest.failf "driver failed: %s" (Kfuse_util.Diag.to_string d)

let bytes_of (r : F.Driver.report) = Marshal.to_string r []

let test_cached_bit_identical () =
  with_temp_dir @@ fun tmp ->
  (* A directory that does not exist yet: the first store creates it. *)
  let dir = Filename.concat tmp "plans" in
  let p = Kfuse_apps.Harris.pipeline () in
  let key = Cache.Fingerprint.plan_key ~config ~strategy:F.Driver.Mincut p in
  let cache = Cache.Plan_cache.create ~dir () in
  let compute () = F.Driver.run_result config F.Driver.Mincut p in
  (match Cache.Plan_cache.find_or_compute cache key compute with
  | Ok (_, Cache.Plan_cache.Miss) -> ()
  | _ -> Alcotest.fail "first lookup should be a plain miss");
  Alcotest.(check bool) "the first store created the directory" true (Sys.file_exists dir);
  let fresh = fresh_report p in
  (match Cache.Plan_cache.find_or_compute cache key compute with
  | Ok (r, Cache.Plan_cache.Hit_memory) ->
    Alcotest.(check bool) "memory hit bit-identical" true
      (String.equal (bytes_of fresh) (bytes_of r))
  | _ -> Alcotest.fail "second lookup should hit memory");
  (* A fresh instance over the same dir models a restarted process. *)
  (match Cache.Plan_cache.find (Cache.Plan_cache.create ~dir ()) key with
  | Some (r, Cache.Plan_cache.Hit_disk) ->
    Alcotest.(check bool) "disk hit bit-identical" true
      (String.equal (bytes_of fresh) (bytes_of r))
  | _ -> Alcotest.fail "restarted lookup should hit disk");
  let s = Cache.Plan_cache.stats cache in
  Alcotest.(check int) "one memory hit" 1 s.Cache.Plan_cache.hits;
  Alcotest.(check int) "one miss" 1 s.Cache.Plan_cache.misses;
  Alcotest.(check int) "one store" 1 s.Cache.Plan_cache.stores

(* [p] with every kernel (and its uses) renamed [prefix ^ name]: the
   same structural slot, a different exact key. *)
let renamed ?(prefix = "x_") (p : Pipeline.t) =
  let rename n = if List.mem n p.Pipeline.inputs then n else prefix ^ n in
  Pipeline.create ~name:"renamed" ~width:p.Pipeline.width ~height:p.Pipeline.height
    ~channels:p.Pipeline.channels ~params:p.Pipeline.params ~inputs:p.Pipeline.inputs
    (List.map
       (fun (k : Kernel.t) ->
         let op =
           match k.Kernel.op with
           | Kernel.Map e -> Kernel.Map (Expr.rename_images rename e)
           | Kernel.Reduce { init; combine; arg } ->
             Kernel.Reduce { init; combine; arg = Expr.rename_images rename arg }
         in
         Kernel.create ~name:(rename k.Kernel.name) ~inputs:(List.map rename k.Kernel.inputs) op)
       (Array.to_list p.Pipeline.kernels))

let test_iso_request_recomputed () =
  let p = Kfuse_apps.Harris.pipeline () in
  (* Same structure, different kernel names: lives under the same
     structural slot but must not be served p's report. *)
  let q = renamed p in
  let kp = Cache.Fingerprint.plan_key ~config ~strategy:F.Driver.Mincut p in
  let kq = Cache.Fingerprint.plan_key ~config ~strategy:F.Driver.Mincut q in
  Alcotest.(check bool) "same structural slot" true
    (String.equal kp.Cache.Fingerprint.structural kq.Cache.Fingerprint.structural);
  Alcotest.(check bool) "different exact fingerprints" false
    (String.equal kp.Cache.Fingerprint.exact kq.Cache.Fingerprint.exact);
  let cache = Cache.Plan_cache.create () in
  Cache.Plan_cache.store cache kp (fresh_report p);
  (match Cache.Plan_cache.find cache kq with
  | None -> ()
  | Some _ -> Alcotest.fail "a renamed pipeline must not be served the original's report");
  let s = Cache.Plan_cache.stats cache in
  Alcotest.(check int) "counted as iso miss" 1 s.Cache.Plan_cache.iso_misses;
  (* The recomputed report is for q's own names. *)
  match Cache.Plan_cache.find_or_compute cache kq (fun () -> F.Driver.run_result config F.Driver.Mincut q) with
  | Ok (r, Cache.Plan_cache.Miss_iso) ->
    Alcotest.(check bool) "recomputed for q" true
      (String.equal (bytes_of (fresh_report q)) (bytes_of r))
  | _ -> Alcotest.fail "expected an iso-miss recompute"

(* ---- a slot holds several namings of one structure ---- *)

let small_sobel () = Kfuse_apps.Sobel.pipeline ~width:16 ~height:16 ()
let key_of p = Cache.Fingerprint.plan_key ~config ~strategy:F.Driver.Mincut p
let compute_of p () = F.Driver.run_result config F.Driver.Mincut p

let outcome =
  Alcotest.testable
    (fun ppf o -> Format.pp_print_string ppf (Cache.Plan_cache.outcome_to_string o))
    ( = )

let check_hit cache p =
  match Cache.Plan_cache.find cache (key_of p) with
  | Some (r, Cache.Plan_cache.Hit_memory) ->
    Alcotest.(check bool) "hit bit-identical to its own fresh run" true
      (String.equal (bytes_of (fresh_report p)) (bytes_of r))
  | Some (_, o) ->
    Alcotest.failf "expected a memory hit, got %s" (Cache.Plan_cache.outcome_to_string o)
  | None -> Alcotest.fail "expected a memory hit, got a miss"

let outcome_of cache p =
  match Cache.Plan_cache.find_or_compute cache (key_of p) (compute_of p) with
  | Ok (_, o) -> o
  | Error d -> Alcotest.failf "driver failed: %s" (Kfuse_util.Diag.to_string d)

(* The first sight of a renamed copy is still an iso miss, counted once;
   its recompute joins the original in the slot. *)
let test_first_sight_iso () =
  let p = small_sobel () in
  let cache = Cache.Plan_cache.create () in
  Alcotest.check outcome "original" Cache.Plan_cache.Miss (outcome_of cache p);
  Alcotest.check outcome "renamed, first sight" Cache.Plan_cache.Miss_iso
    (outcome_of cache (renamed p));
  let s = Cache.Plan_cache.stats cache in
  Alcotest.(check int) "one iso miss" 1 s.Cache.Plan_cache.iso_misses;
  Alcotest.(check int) "both namings held" 2 s.Cache.Plan_cache.entries

(* An original and its renamed copy, looked up in turn, are both served:
   neither store evicts the other. *)
let test_namings_alternate () =
  let a = small_sobel () in
  let b = renamed a in
  let cache = Cache.Plan_cache.create () in
  ignore (outcome_of cache a);
  ignore (outcome_of cache b);
  let before = Cache.Plan_cache.stats cache in
  List.iter (check_hit cache) [ a; b; a; b ];
  let after = Cache.Plan_cache.stats cache in
  Alcotest.(check int) "no further iso miss" before.Cache.Plan_cache.iso_misses
    after.Cache.Plan_cache.iso_misses;
  Alcotest.(check int) "no further store" before.Cache.Plan_cache.stores
    after.Cache.Plan_cache.stores;
  Alcotest.(check int) "four hits" (before.Cache.Plan_cache.hits + 4)
    after.Cache.Plan_cache.hits

(* Five namings of one structure: the slot keeps four, and the least
   recently used one is an iso miss again. *)
let test_slot_cap () =
  let base = small_sobel () in
  let n = Array.init 5 (fun i -> renamed ~prefix:(Printf.sprintf "n%d_" i) base) in
  let cache = Cache.Plan_cache.create () in
  let entries () = (Cache.Plan_cache.stats cache).Cache.Plan_cache.entries in
  Array.iteri
    (fun i p ->
      ignore (outcome_of cache p);
      Alcotest.(check int) "entries" (min (i + 1) 4) (entries ()))
    n;
  (* Stored 0..4: naming 0 was pushed out. *)
  Alcotest.check outcome "oldest naming" Cache.Plan_cache.Miss_iso (outcome_of cache n.(0));
  Alcotest.(check int) "capped at four" 4 (entries ());
  (* Now the slot is 0, 4, 3, 2 and naming 1 is out; a hit on 2 makes
     3 the least recently used. *)
  check_hit cache n.(2);
  Alcotest.check outcome "pushed out by the re-store" Cache.Plan_cache.Miss_iso
    (outcome_of cache n.(1));
  Alcotest.check outcome "least recently used" Cache.Plan_cache.Miss_iso
    (outcome_of cache n.(3));
  List.iter (fun i -> check_hit cache n.(i)) [ 3; 1; 2 ];
  Alcotest.(check int) "still four" 4 (entries ());
  Alcotest.(check int) "iso misses" 7
    (Cache.Plan_cache.stats cache).Cache.Plan_cache.iso_misses

(* Random find/store sequences over 3 structures x 3 namings, against a
   model: a lookup hits exactly when its own naming was stored (three
   namings fit a slot), is an iso miss when only a sibling was, and a
   hit returns the report stored under its exact key, never a
   sibling's. *)
type op = Find of int * int | Store of int * int

let pp_op = function
  | Find (s, n) -> Printf.sprintf "find %d/%d" s n
  | Store (s, n) -> Printf.sprintf "store %d/%d" s n

let ops_arb =
  let op =
    QCheck.Gen.(
      map3
        (fun find s n -> if find then Find (s, n) else Store (s, n))
        bool (int_bound 2) (int_bound 2))
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 40) op)

let namings =
  lazy
    (let structures =
       [
         small_sobel ();
         Kfuse_apps.Unsharp.pipeline ~width:16 ~height:16 ();
         Kfuse_apps.Harris.pipeline ~width:16 ~height:16 ();
       ]
     in
     Array.of_list
       (List.map
          (fun p ->
            Array.map
              (fun p -> (key_of p, fresh_report p))
              [| p; renamed ~prefix:"a_" p; renamed ~prefix:"b_" p |])
          structures))

let prop_slot_model =
  QCheck.Test.make ~name:"plan cache: every hit is its own naming's report" ~count:200 ops_arb
    (fun ops ->
      let plans = Lazy.force namings in
      let cache = Cache.Plan_cache.create () in
      let stored = Hashtbl.create 9 in
      let lookups = ref 0 in
      let ok =
        List.for_all
          (function
            | Store (s, n) ->
              let key, report = plans.(s).(n) in
              Cache.Plan_cache.store cache key report;
              Hashtbl.replace stored (s, n) ();
              true
            | Find (s, n) -> (
              incr lookups;
              let key, report = plans.(s).(n) in
              let held = Hashtbl.mem stored (s, n) in
              let sibling = List.exists (fun m -> Hashtbl.mem stored (s, m)) [ 0; 1; 2 ] in
              let iso () = (Cache.Plan_cache.stats cache).Cache.Plan_cache.iso_misses in
              let before = iso () in
              match Cache.Plan_cache.find cache key with
              | Some (r, Cache.Plan_cache.Hit_memory) -> held && r == report
              | Some _ -> false
              | None -> (not held) && (iso () - before = 1) = sibling))
          ops
      in
      let st = Cache.Plan_cache.stats cache in
      ok
      && st.Cache.Plan_cache.hits + st.Cache.Plan_cache.misses
         + st.Cache.Plan_cache.iso_misses
         = !lookups)

let test_corrupt_disk_entry () =
  with_temp_dir @@ fun dir ->
  let p = Kfuse_apps.Sobel.pipeline () in
  let key = Cache.Fingerprint.plan_key ~config ~strategy:F.Driver.Mincut p in
  Cache.Plan_cache.store (Cache.Plan_cache.create ~dir ()) key (fresh_report p);
  let path = Filename.concat dir (key.Cache.Fingerprint.structural ^ ".plan") in
  Alcotest.(check bool) "entry on disk" true (Sys.file_exists path);
  Out_channel.with_open_bin path (fun oc -> output_string oc "kfuse-plan 1 garbage\nnope\n");
  let cache = Cache.Plan_cache.create ~dir () in
  (match Cache.Plan_cache.find cache key with
  | None -> ()
  | Some _ -> Alcotest.fail "corrupt entry must be a miss");
  let s = Cache.Plan_cache.stats cache in
  Alcotest.(check int) "corruption counted" 1 s.Cache.Plan_cache.disk_errors;
  Alcotest.(check bool) "corrupt file removed" false (Sys.file_exists path)

(* A store written before [Pipeline.t] kept its DAG has a well-formed
   header, digest and payload, but the payload is the old record layout.
   Its format number alone must reject it: reading it back would hand the
   planner a 7-field record typed as the 8-field one. *)
let test_old_format_entry () =
  with_temp_dir @@ fun dir ->
  let p = Kfuse_apps.Sobel.pipeline () in
  let key = Cache.Fingerprint.plan_key ~config ~strategy:F.Driver.Mincut p in
  Cache.Plan_cache.store (Cache.Plan_cache.create ~dir ()) key (fresh_report p);
  let path = Filename.concat dir (key.Cache.Fingerprint.structural ^ ".plan") in
  (* Keep everything after the first line: the digest and the payload. *)
  let contents = In_channel.with_open_bin path In_channel.input_all in
  let nl = String.index contents '\n' in
  let rest = String.sub contents nl (String.length contents - nl) in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "kfuse-plan 1 %s %d%s" Sys.ocaml_version Sys.word_size rest);
  let cache = Cache.Plan_cache.create ~dir () in
  (match Cache.Plan_cache.find cache key with
  | None -> ()
  | Some _ -> Alcotest.fail "a format-1 entry must be a miss");
  Alcotest.(check int) "old format counted" 1
    (Cache.Plan_cache.stats cache).Cache.Plan_cache.disk_errors;
  Alcotest.(check bool) "old file removed" false (Sys.file_exists path);
  (match
     Cache.Plan_cache.find_or_compute cache key (fun () ->
         F.Driver.run_result config F.Driver.Mincut p)
   with
  | Ok (r, Cache.Plan_cache.Miss) ->
    Alcotest.(check bool) "recomputed report is fresh" true
      (String.equal (bytes_of (fresh_report p)) (bytes_of r))
  | _ -> Alcotest.fail "expected a recompute");
  Alcotest.(check string) "restored under format 4"
    (Printf.sprintf "kfuse-plan 4 %s %d" Sys.ocaml_version Sys.word_size)
    (In_channel.with_open_bin path input_line)

(* The memory layout of a marshaled report, data abstracted away: block
   tags and sizes, with strings and floats reduced to their tag (their
   length is data, not layout).  Walked on an unmarshaled copy, so it is
   the layout the disk tier reads back. *)
let shape_digest (r : F.Driver.report) =
  let b = Buffer.create 4096 in
  let rec walk v =
    if Obj.is_int v then Buffer.add_char b 'i'
    else
      let tag = Obj.tag v in
      if tag = Obj.string_tag then Buffer.add_char b 's'
      else if tag = Obj.double_tag || tag = Obj.double_array_tag then Buffer.add_char b 'd'
      else if tag >= Obj.no_scan_tag then Printf.bprintf b "<%d>" tag
      else begin
        Printf.bprintf b "(%d:%d" tag (Obj.size v);
        for i = 0 to Obj.size v - 1 do
          walk (Obj.field v i)
        done;
        Buffer.add_char b ')'
      end
  in
  walk (Obj.repr (Marshal.from_string (bytes_of r) 0 : F.Driver.report));
  Digest.to_hex (Digest.string (Buffer.contents b))

(* A marshaled type that changes shape must bump the disk format number
   (reading an old entry as the new layout is memory-unsafe).  Pinned
   here: the format number and the layout digest of a canonical report,
   the min-cut plan of a 16x16 Sobel.  A layout change fails this test;
   bump [Plan_cache.format_version] and re-pin both values. *)
let test_report_shape_pinned () =
  let r = fresh_report (Kfuse_apps.Sobel.pipeline ~width:16 ~height:16 ()) in
  Alcotest.(check (pair int string))
    "format version and report layout (on a layout change: bump the format, re-pin)"
    (4, "47a77a44355ef708c6a6efdb4ad60c4b")
    (Cache.Plan_cache.format_version, shape_digest r)

let test_degraded_not_stored () =
  let p = Kfuse_apps.Harris.pipeline () in
  let key = Cache.Fingerprint.plan_key ~config ~strategy:F.Driver.Mincut p in
  let degraded =
    Faults.with_spec "driver.strategy@1" (fun () ->
        match F.Driver.run_result config F.Driver.Mincut p with
        | Ok r -> r
        | Error d -> Alcotest.failf "driver failed: %s" (Kfuse_util.Diag.to_string d))
  in
  Alcotest.(check bool) "fault degraded the run" true degraded.F.Driver.degraded;
  let cache = Cache.Plan_cache.create () in
  Cache.Plan_cache.store cache key degraded;
  (match Cache.Plan_cache.find cache key with
  | None -> ()
  | Some _ -> Alcotest.fail "degraded reports must not be cached");
  Alcotest.(check int) "no store recorded" 0
    (Cache.Plan_cache.stats cache).Cache.Plan_cache.stores

(* The sharded topology's L2 contract: several kfused shard processes
   share one cache directory, so concurrent atomic tmp+rename stores of
   the same and different entries must never corrupt a read and never
   double-count a hit.  Modeled here with two instances (processes) and
   racing threads — the same code path a multi-process fleet takes,
   since the store is a plain directory with no in-process locks. *)
let test_shared_dir_concurrent_stores () =
  with_temp_dir @@ fun dir ->
  let a = Cache.Plan_cache.create ~dir () in
  let b = Cache.Plan_cache.create ~dir () in
  let pipelines =
    [|
      Kfuse_apps.Harris.pipeline ();
      Kfuse_apps.Sobel.pipeline ();
      Kfuse_apps.Unsharp.pipeline ();
    |]
  in
  let keys =
    Array.map (fun p -> Cache.Fingerprint.plan_key ~config ~strategy:F.Driver.Mincut p) pipelines
  in
  let reports = Array.map fresh_report pipelines in
  let rounds = 20 in
  let threads =
    List.concat_map
      (fun cache ->
        List.init 2 (fun t ->
            Thread.create
              (fun () ->
                for r = 0 to rounds - 1 do
                  let i = (r + t) mod Array.length keys in
                  Cache.Plan_cache.store cache keys.(i) reports.(i);
                  Thread.yield ()
                done)
              ()))
      [ a; b ]
  in
  List.iter Thread.join threads;
  (* Every entry reads back bit-identical through a third instance (a
     fresh process over the same directory), despite the write storm. *)
  let reader = Cache.Plan_cache.create ~dir () in
  Array.iteri
    (fun i key ->
      match Cache.Plan_cache.find reader key with
      | Some (r, Cache.Plan_cache.Hit_disk) ->
        Alcotest.(check bool) "disk entry bit-identical after racing stores" true
          (String.equal (bytes_of reports.(i)) (bytes_of r))
      | Some (_, _) -> Alcotest.fail "expected a disk hit"
      | None -> Alcotest.failf "entry %d lost in the write race" i)
    keys;
  (* No torn reads anywhere: the racing writers never tripped a disk
     error, and hit accounting is exact — the reader saw one disk hit
     per entry, no double counting. *)
  List.iter
    (fun c ->
      Alcotest.(check int) "no disk errors" 0
        (Cache.Plan_cache.stats c).Cache.Plan_cache.disk_errors)
    [ a; b; reader ];
  let rs = Cache.Plan_cache.stats reader in
  Alcotest.(check int) "reader hit disk exactly once per entry" (Array.length keys)
    rs.Cache.Plan_cache.disk_hits;
  Alcotest.(check int) "reader recorded no memory hits" 0 rs.Cache.Plan_cache.hits

(* Eight threads miss one key together while its plan takes 50 ms to
   compute: the plan is computed once, and the seven that waited are
   served what it stored. *)
let test_concurrent_misses_compute_once () =
  let p = Kfuse_apps.Sobel.pipeline () in
  let key = Cache.Fingerprint.plan_key ~config ~strategy:F.Driver.Mincut p in
  let report = fresh_report p in
  let cache = Cache.Plan_cache.create () in
  let computed = Atomic.make 0 and go = Atomic.make false in
  let compute () =
    Atomic.incr computed;
    Unix.sleepf 0.05;
    Ok report
  in
  let results = Array.make 8 None in
  let threads =
    List.init 8 (fun i ->
        Thread.create
          (fun () ->
            while not (Atomic.get go) do
              Thread.yield ()
            done;
            results.(i) <- Some (Cache.Plan_cache.find_or_compute cache key compute))
          ())
  in
  Atomic.set go true;
  List.iter Thread.join threads;
  Alcotest.(check int) "computed once" 1 (Atomic.get computed);
  let outcomes =
    Array.to_list results
    |> List.map (function
         | Some (Ok (r, o)) ->
           Alcotest.(check string) "the computed report" (bytes_of report) (bytes_of r);
           Cache.Plan_cache.outcome_to_string o
         | Some (Error d) -> Alcotest.failf "find_or_compute failed: %s" (Kfuse_util.Diag.to_string d)
         | None -> Alcotest.fail "a thread returned nothing")
  in
  Alcotest.(check (list string)) "one miss, seven memory hits"
    ("miss" :: List.init 7 (fun _ -> "hit"))
    (List.sort (fun a b -> compare (a <> "miss") (b <> "miss")) outcomes)

let suite =
  List.map
    (fun t -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20260806 |]) t)
    [ prop_structural_rename_invariant; prop_exact_sees_renames; prop_structural_sees_edits ]
  @ [
      Alcotest.test_case "plan keys separate distinct requests" `Quick test_plan_key_requests;
      Alcotest.test_case "lru: bump, evict, counters" `Quick test_lru;
      Alcotest.test_case "cached report is bit-identical (both tiers)" `Quick
        test_cached_bit_identical;
      Alcotest.test_case "renamed pipeline is recomputed, not translated" `Quick
        test_iso_request_recomputed;
      Alcotest.test_case "corrupt disk entry degrades to a miss" `Quick
        test_corrupt_disk_entry;
      Alcotest.test_case "format-1 disk entry is dropped and recomputed" `Quick
        test_old_format_entry;
      Alcotest.test_case "degraded reports are not cached" `Quick test_degraded_not_stored;
      Alcotest.test_case "report layout is pinned to the format number" `Quick
        test_report_shape_pinned;
      Alcotest.test_case "shared dir: concurrent stores stay atomic" `Quick
        test_shared_dir_concurrent_stores;
      Alcotest.test_case "first sight of a renamed copy is an iso miss" `Quick
        test_first_sight_iso;
      Alcotest.test_case "original and renamed copy alternate as hits" `Quick
        test_namings_alternate;
      Alcotest.test_case "a slot keeps the four most recent namings" `Quick test_slot_cap;
    ]
  @ [ QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20261018 |]) prop_slot_model ]
  @ [
      Alcotest.test_case "concurrent misses on one key compute once" `Quick
        test_concurrent_misses_compute_once;
    ]
