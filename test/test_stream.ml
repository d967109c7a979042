(* The streaming subsystem, bottom to top.

   Unit layers first — temporal input analysis, the session's sliding
   window (cold-start clamping, ring eviction), protocol round-trips —
   then the live daemon: the open/push/close lifecycle, idle expiry,
   capacity and backpressure sheds with the client's retry split,
   SIGTERM drain with streams still open, a mid-stream crash that trips
   the breaker and falls back to the interpreter without perturbing the
   pixel history, and the exactly-one-compile-per-stream contract. *)

module Svc = Kfuse_service
module Jsonx = Svc.Jsonx
module Protocol = Svc.Protocol
module Cache = Kfuse_cache
module Faults = Kfuse_util.Faults
module Diag = Kfuse_util.Diag
module Ir = Kfuse_ir
module Img = Kfuse_image
module F = Kfuse_fusion
module Temporal = Kfuse_ir.Temporal
module Session = Kfuse_stream.Session
module Frames = Kfuse_stream.Frames
module Native = Kfuse_exec.Native

open Support

let code_of (d : Diag.t) = Diag.code_id d.Diag.code

(* ---- temporal analysis ---- *)

let test_temporal_analysis () =
  let lag n = Temporal.lag_of_name n in
  Alcotest.(check (option int)) "prev is lag 1" (Some 1) (lag "prev");
  Alcotest.(check (option int)) "prev2 is lag 2" (Some 2) (lag "prev2");
  Alcotest.(check (option int)) "prev9 is lag 9" (Some 9) (lag "prev9");
  Alcotest.(check (option int)) "frame is current" None (lag "frame");
  Alcotest.(check (option int)) "previous is not temporal" None (lag "previous");
  let p =
    (Option.get (Kfuse_apps.Registry.find "motion")).Kfuse_apps.Registry.small
      ~width:8 ~height:6
  in
  let a = Temporal.analyze p in
  Alcotest.(check (list string)) "motion's current input" [ "frame" ] a.Temporal.current;
  Alcotest.(check (list (pair string int)))
    "motion's temporal input" [ ("prev", 1) ] a.Temporal.temporal;
  Alcotest.(check int) "motion's depth" 1 a.Temporal.depth;
  Alcotest.(check bool) "motion is temporal" true (Temporal.is_temporal a);
  (match Temporal.stream_input a with
  | Ok n -> Alcotest.(check string) "stream input" "frame" n
  | Error d -> Alcotest.failf "stream_input: %s" (Diag.to_string d));
  (* Two current inputs: binding a pushed frame would be ambiguous. *)
  let two =
    Ir.Pipeline.create ~name:"two" ~width:4 ~height:4 ~inputs:[ "a"; "b" ]
      [
        Kfuse_ir.Kernel.map ~name:"k" ~inputs:[ "a"; "b" ]
          Kfuse_ir.Expr.(input "a" + input "b");
      ]
  in
  match Temporal.stream_input (Temporal.analyze two) with
  | Ok n -> Alcotest.failf "ambiguous pipeline streamed via %S" n
  | Error _ -> ()

(* ---- synthetic frames ---- *)

(* The OCaml reference for [Frames.synthetic]: its per-pixel loop as it
   was before it moved into a C stub.  The stub is trusted only because
   the property below holds. *)
let[@inline] mix h v = (h lxor (v + 0x7f4a7c15 + (h lsl 6) + (h lsr 2))) land 0x3FFFFFFF

let hash2 seed x y =
  let h = seed lxor 0x9e3779b9 in
  let h = mix h x in
  let h = mix h (y * 0x85eb) in
  mix h (x lxor (y lsl 8))

let synthetic_reference ~seed ~width ~height ~index =
  let fw = float_of_int width and fh = float_of_int height in
  let fi = float_of_int index in
  let phase = float_of_int (seed land 1023) *. 0.0061359 in
  let cx = fw *. (0.5 +. (0.3 *. sin ((fi *. 0.35) +. phase))) in
  let cy = fh *. (0.5 +. (0.3 *. cos ((fi *. 0.23) +. phase))) in
  let rx = 0.15 *. fw and ry = 0.15 *. fh in
  let ex =
    Array.init width (fun x ->
        let dx = (float_of_int x -. cx) /. rx in
        exp (-.(dx *. dx)))
  in
  let ey =
    Array.init height (fun y ->
        let dy = (float_of_int y -. cy) /. ry in
        exp (-.(dy *. dy)))
  in
  let frame_seed = seed + (index * 7919) in
  let data = Array.make (width * height) 0.0 in
  for y = 0 to height - 1 do
    let eyv = ey.(y) in
    let row = y * width in
    for x = 0 to width - 1 do
      let blob = ex.(x) *. eyv in
      let noise = float_of_int (hash2 frame_seed x y) /. 1073741824.0 in
      data.(row + x) <- 0.15 +. (0.7 *. blob) +. (0.05 *. noise)
    done
  done;
  Img.Image.unsafe_of_flat ~width ~height data

let arb_frame =
  let open QCheck in
  let seed =
    Gen.(frequency
           [ (1, oneofl [ 0; -1; max_int; min_int; (1 lsl 30) - 1; 42 ]); (3, int) ])
  in
  let odd = Gen.map (fun n -> (2 * n) + 1) (Gen.int_bound 35) in
  let extent =
    Gen.(frequency
           [
             (1, return (1, 1));
             (2, map (fun n -> (1, n)) (int_range 1 70));
             (2, map (fun n -> (n, 1)) (int_range 1 70));
             (6, pair odd odd);
             (2, pair (int_range 1 70) (int_range 1 70));
           ])
  in
  let index = Gen.int_bound 1_000_000 in
  let positive = Shrink.filter (fun n -> n >= 1) Shrink.int in
  make
    ~print:(fun (seed, (w, h), index) -> Printf.sprintf "seed %d, %dx%d, index %d" seed w h index)
    ~shrink:(Shrink.triple Shrink.int (Shrink.pair positive positive) Shrink.int)
    (Gen.triple seed extent index)

let bit_identical want got =
  Img.Image.width want = Img.Image.width got
  && Img.Image.height want = Img.Image.height got
  && Array.for_all2
       (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
       (Img.Image.unsafe_data want) (Img.Image.unsafe_data got)

let prop_synthetic_reference =
  QCheck.Test.make ~count:400 ~name:"Frames.synthetic = the OCaml reference, bit for bit"
    arb_frame (fun (seed, (width, height), index) ->
      bit_identical
        (synthetic_reference ~seed ~width ~height ~index)
        (Frames.synthetic ~seed ~width ~height ~index))

let test_synthetic_512 () =
  List.iter
    (fun (seed, index) ->
      let want = synthetic_reference ~seed ~width:512 ~height:512 ~index in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d, frame %d at 512x512" seed index)
        true
        (bit_identical want (Frames.synthetic ~seed ~width:512 ~height:512 ~index)))
    [ (42, 3); (min_int, 999_999) ]

(* MD5 of the frame's little-endian float64 bytes, row-major. *)
let frame_digest img =
  let d = Img.Image.unsafe_data img in
  let b = Bytes.create (8 * Array.length d) in
  Array.iteri (fun i v -> Bytes.set_int64_le b (8 * i) (Int64.bits_of_float v)) d;
  Digest.to_hex (Digest.bytes b)

(* Pinned across releases: the client, the server and the fuzz oracle
   rebuild the same pixels from (seed, index), so these never change. *)
let test_synthetic_golden () =
  List.iter
    (fun (seed, width, height, index, want) ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d, %dx%d, frame %d" seed width height index)
        want
        (frame_digest (Frames.synthetic ~seed ~width ~height ~index)))
    [
      (42, 512, 512, 0, "bcdf185f222ae657e76502ad8970f86b");
      (42, 512, 512, 1000, "96a6badd7d4dccbfad1b24fa6bdd16fa");
      (-1, 130, 70, 7, "dc7edadc27c3afff247b82e29d486c8f");
      (max_int, 3, 2, 0, "317f732fc09f0c4e58f950c7ac68b011");
    ]

(* ---- session window semantics ---- *)

(* A lag-2 identity pipeline: the output IS the frame two steps back,
   so window bookkeeping is directly observable in the pixels. *)
let lag2_pipeline () =
  Ir.Pipeline.create ~name:"lag2" ~width:4 ~height:3 ~inputs:[ "frame"; "prev2" ]
    [ Kfuse_ir.Kernel.map ~name:"echo" ~inputs:[ "prev2" ] (Kfuse_ir.Expr.input "prev2") ]

let frame_at i = Frames.synthetic ~seed:9 ~width:4 ~height:3 ~index:i

let check_image what want got =
  Alcotest.(check (float 0.0)) what 0.0 (Img.Image.max_abs_diff want got)

let test_session_window () =
  let session =
    match Session.create (lag2_pipeline ()) with
    | Ok s -> s
    | Error d -> Alcotest.failf "create: %s" (Diag.to_string d)
  in
  Alcotest.(check int) "depth is the max lag" 2 (Session.depth session);
  Alcotest.(check string) "stream input" "frame" (Session.stream_input session);
  Alcotest.(check int) "no frames yet" 0 (Session.frames session);
  let out s i =
    match Session.push s (frame_at i) with
    | [ (_, img) ] -> img
    | outs -> Alcotest.failf "expected one output, got %d" (List.length outs)
  in
  (* Cold start: every lag clamps toward the oldest frame available —
     the current frame itself on frame 0. *)
  check_image "frame 0: prev2 clamps to the current frame" (frame_at 0) (out session 0);
  check_image "frame 1: prev2 clamps to frame 0" (frame_at 0) (out session 1);
  (* Warm: the true two-back frame... *)
  check_image "frame 2: true lag" (frame_at 0) (out session 2);
  check_image "frame 3: true lag" (frame_at 1) (out session 3);
  (* ... and the ring must have evicted beyond the depth, which the
     lagged output proves frame by frame. *)
  check_image "frame 4: ring advanced" (frame_at 2) (out session 4);
  Alcotest.(check int) "five frames pushed" 5 (Session.frames session)

let test_session_matches_manual_eval () =
  (* The session interpreter is nothing more than Eval over explicitly
     lagged bindings; motion's delta/threshold must agree bitwise. *)
  let p =
    (Option.get (Kfuse_apps.Registry.find "motion")).Kfuse_apps.Registry.small
      ~width:8 ~height:6
  in
  let session =
    match Session.create p with
    | Ok s -> s
    | Error d -> Alcotest.failf "create: %s" (Diag.to_string d)
  in
  let frame i = Frames.synthetic ~seed:3 ~width:8 ~height:6 ~index:i in
  for i = 0 to 3 do
    let cur = frame i in
    let prev = frame (max 0 (i - 1)) in
    let manual =
      Ir.Eval.run_outputs ~params:(Session.params session) p
        (Ir.Eval.env_of_list [ ("frame", cur); ("prev", prev) ])
    in
    let got = Session.push session cur in
    List.iter2
      (fun (wn, want) (gn, got) ->
        Alcotest.(check string) "output name" wn gn;
        check_image (Printf.sprintf "frame %d output %s" i wn) want got)
      manual got
  done

(* The frame ring: tharris (depth 2, prev and prev2) drawn through its
   session's ring for 10 frames.  Every drawn frame, and every frame the
   window binds, is [Frames.synthetic] of its index (the cold start
   clamps to frame 0), so no draw overwrote a frame still in the
   window; and the outputs are an all-interpreter session's on
   allocated frames. *)
let test_session_ring () =
  let width = 11 and height = 7 and seed = 5 in
  let p =
    (Option.get (Kfuse_apps.Registry.find "tharris")).Kfuse_apps.Registry.small ~width ~height
  in
  let create () =
    match Session.create p with
    | Ok s -> s
    | Error d -> Alcotest.failf "create: %s" (Diag.to_string d)
  in
  let ring = create () and reference = create () in
  Alcotest.(check int) "tharris streams at depth 2" 2 (Session.depth ring);
  let synthetic i = Frames.synthetic ~seed ~width ~height ~index:(max 0 i) in
  for i = 0 to 9 do
    let frame = Session.draw ring ~seed in
    check_image (Printf.sprintf "frame %d drawn" i) (synthetic i) frame;
    List.iter
      (fun (name, img) ->
        let lag = Option.value ~default:0 (Temporal.lag_of_name name) in
        check_image (Printf.sprintf "frame %d binds %s" i name) (synthetic (i - lag)) img)
      (Session.bindings ring frame);
    let want = Session.push reference (synthetic i) in
    let got = Session.eval ring frame in
    Session.advance ring frame;
    List.iter2
      (fun (wn, w) (gn, g) ->
        Alcotest.(check string) "output name" wn gn;
        check_image (Printf.sprintf "frame %d output %s" i wn) w g)
      want got
  done

(* ---- protocol round-trips ---- *)

let open_req ?(seed = 42) ?width ?height app =
  { Protocol.fuse = fuse_req app; exec_mode = None; width; height; seed }

let push_req ?(verify = false) ?(return_pixels = false) id =
  { Protocol.id; verify; return_pixels }

let test_protocol_roundtrip () =
  let roundtrip req =
    let j = Protocol.request_to_json req in
    match Protocol.request_of_json j with
    | Error d -> Alcotest.failf "decode failed: %s" (Diag.to_string d)
    | Ok req' ->
      Alcotest.(check string)
        "encode/decode/encode is the identity"
        (Jsonx.to_string j)
        (Jsonx.to_string (Protocol.request_to_json req'))
  in
  roundtrip (Protocol.Stream_open (open_req ~seed:7 ~width:32 ~height:24 "motion"));
  roundtrip (Protocol.Stream_open (open_req "tharris"));
  roundtrip (Protocol.Stream_push (push_req ~verify:true ~return_pixels:true "st-3"));
  roundtrip (Protocol.Stream_push (push_req "st-0"));
  roundtrip (Protocol.Stream_close "st-12")

(* ---- live daemon ---- *)

let num = function
  | Jsonx.Num n -> n
  | v -> Alcotest.failf "expected a number, got %s" (Jsonx.to_string v)

let str = function
  | Jsonx.Str s -> s
  | v -> Alcotest.failf "expected a string, got %s" (Jsonx.to_string v)

let counter server name = Svc.Metrics.counter (Svc.Server.metrics server) name
let gauge server name = Svc.Metrics.gauge (Svc.Server.metrics server) name

let stream_id reply = str (field "id" reply)

(* The reference a stream must match: the session interpreter over the
   same Mincut-fused pipeline, fed the same synthetic frame sequence. *)
let reference_session ~app ~width ~height =
  let entry = Option.get (Kfuse_apps.Registry.find app) in
  let p = entry.Kfuse_apps.Registry.small ~width ~height in
  let fused = (F.Driver.run F.Config.default F.Driver.Mincut p).F.Driver.fused in
  match Session.create fused with
  | Ok s -> s
  | Error d -> Alcotest.failf "reference session: %s" (Diag.to_string d)

let check_pixels_match reference reply =
  let outputs =
    match field "outputs" reply with
    | Jsonx.Arr outs -> outs
    | v -> Alcotest.failf "outputs is not an array: %s" (Jsonx.to_string v)
  in
  Alcotest.(check int) "output count" (List.length reference) (List.length outputs);
  List.iter2
    (fun (name, img) out ->
      Alcotest.(check string) "output name" name (str (field "name" out));
      match field "pixels" out with
      | Jsonx.Arr rows ->
        List.iteri
          (fun y row ->
            match row with
            | Jsonx.Arr cells ->
              List.iteri
                (fun x cell ->
                  Alcotest.(check (float 0.0))
                    (Printf.sprintf "%s[%d,%d] bit-exact" name x y)
                    (Img.Image.get img x y) (num cell))
                cells
            | v -> Alcotest.failf "row is not an array: %s" (Jsonx.to_string v))
          rows
      | v -> Alcotest.failf "pixels missing: %s" (Jsonx.to_string v))
    reference outputs

let test_stream_lifecycle () =
  with_server @@ fun socket server ->
  Svc.Client.with_connection ~socket (fun c ->
      let opened = expect_ok (Svc.Client.stream_open c (open_req ~width:16 ~height:12 "motion")) in
      let id = stream_id opened in
      Alcotest.(check (float 0.0)) "motion streams at depth 1" 1.0 (num (field "depth" opened));
      Alcotest.(check (float 0.0)) "extent echoed" 16.0 (num (field "width" opened));
      Alcotest.(check int) "gauge sees the stream" 1 (gauge server "streams_active");
      for i = 0 to 2 do
        let reply = expect_ok (Svc.Client.stream_push c (push_req id)) in
        Alcotest.(check (float 0.0))
          (Printf.sprintf "push %d seq" i)
          (float_of_int i) (num (field "seq" reply));
        Alcotest.(check (float 0.0))
          (Printf.sprintf "push %d frame count" i)
          (float_of_int (i + 1))
          (num (field "frames" reply))
      done;
      (* The stats view agrees with the metrics registry. *)
      let stats = expect_ok (Svc.Client.stats c) in
      let streams = field "streams" stats in
      Alcotest.(check (float 0.0)) "stats: one active" 1.0 (num (field "active" streams));
      Alcotest.(check (float 0.0)) "stats: frames pushed" 3.0
        (num (field "frames_pushed" streams));
      let closed = expect_ok (Svc.Client.stream_close c id) in
      Alcotest.(check (float 0.0)) "close reports the frame total" 3.0
        (num (field "frames" closed));
      Ok ())
  |> expect_ok;
  Alcotest.(check int) "opened counted" 1 (counter server "streams_opened");
  Alcotest.(check int) "closed counted" 1 (counter server "streams_closed");
  Alcotest.(check int) "pushes counted" 3 (counter server "frames_pushed");
  Alcotest.(check int) "gauge back to zero" 0 (gauge server "streams_active")

let test_stream_unknown_id () =
  with_server @@ fun socket _server ->
  Svc.Client.with_connection ~socket (fun c ->
      (match Svc.Client.stream_push c (push_req "st-999") with
      | Ok _ -> Alcotest.fail "push to an unopened stream must fail"
      | Error d -> Alcotest.(check string) "push typed KF0806" "KF0806" (code_of d));
      (match Svc.Client.stream_close c "st-999" with
      | Ok _ -> Alcotest.fail "close of an unopened stream must fail"
      | Error d -> Alcotest.(check string) "close typed KF0806" "KF0806" (code_of d));
      Ok ())
  |> expect_ok

(* The two session kinds the capacity and idle-expiry tests run over:
   how to open one, use it, close it, and its metric prefix. *)
type kind = {
  prefix : string;
  open_ : Svc.Client.t -> (Jsonx.t, Diag.t) result;
  use : Svc.Client.t -> string -> (Jsonx.t, Diag.t) result;
  close : Svc.Client.t -> string -> (Jsonx.t, Diag.t) result;
}

let stream_kind =
  {
    prefix = "streams";
    open_ = (fun c -> Svc.Client.stream_open c (open_req ~width:16 ~height:12 "motion"));
    use = (fun c id -> Svc.Client.stream_push c (push_req id));
    close = Svc.Client.stream_close;
  }

let lazy_kind =
  {
    prefix = "lazy";
    open_ =
      (fun c ->
        Svc.Client.request c
          (Protocol.Lazy_open
             {
               Protocol.app = Some "harris";
               source = None;
               width = Some 16;
               height = Some 12;
               channels = None;
               inputs = [];
               c_mshared = None;
               gamma = None;
               tg = None;
             }));
    use = (fun c id -> Svc.Client.request c (Protocol.Lazy_flush { Protocol.id; scratch = false }));
    close = (fun c id -> Svc.Client.request c (Protocol.Lazy_close id));
  }

let test_capacity_shed kind () =
  with_server ~max_streams:1 @@ fun socket server ->
  Svc.Client.with_connection ~socket (fun c ->
      let first = expect_ok (kind.open_ c) in
      (match kind.open_ c with
      | Ok _ -> Alcotest.fail "second open must be shed at max_streams 1"
      | Error d -> Alcotest.(check string) "shed typed KF0803" "KF0803" (code_of d));
      Alcotest.(check int) "shed counted" 1 (counter server (kind.prefix ^ "_shed"));
      (* Closing frees the slot: the next open is admitted. *)
      ignore (expect_ok (kind.close c (stream_id first)));
      let third = expect_ok (kind.open_ c) in
      ignore (expect_ok (kind.close c (stream_id third)));
      Ok ())
  |> expect_ok;
  Alcotest.(check int) "gauge back to zero" 0 (gauge server (kind.prefix ^ "_active"))

let test_idle_expiry kind () =
  with_server ~stream_idle_ms:40.0 @@ fun socket server ->
  Svc.Client.with_connection ~socket (fun c ->
      let id = stream_id (expect_ok (kind.open_ c)) in
      ignore (expect_ok (kind.use c id));
      Thread.delay 0.12;
      (* Reaping is lazy: any session/stats op sweeps the idle table. *)
      ignore (expect_ok (Svc.Client.stats c));
      Alcotest.(check int) "expiry counted" 1 (counter server (kind.prefix ^ "_expired"));
      Alcotest.(check int) "gauge back to zero" 0 (gauge server (kind.prefix ^ "_active"));
      (* The id is gone, not resurrect-able. *)
      (match kind.use c id with
      | Ok _ -> Alcotest.fail "use of an expired session must fail"
      | Error d -> Alcotest.(check string) "expired id typed KF0806" "KF0806" (code_of d));
      Ok ())
  |> expect_ok

(* N concurrent cold opens against max_streams 1: the slot is
   reserved before the plan compiles, so exactly one open wins even
   though all of them arrive inside the compile window. *)
let test_concurrent_open_bound () =
  let cache_dir = temp_dir "kfuse-stream-race" in
  with_server ~cache_dir ~max_streams:1 @@ fun socket server ->
  let n = 4 in
  let ready = Atomic.make 0 in
  let results = Array.make n (Ok Jsonx.Null) in
  let opener i =
    Thread.create
      (fun () ->
        results.(i) <-
          Svc.Client.with_connection ~socket (fun c ->
              Atomic.incr ready;
              while Atomic.get ready < n do
                Thread.yield ()
              done;
              Svc.Client.stream_open c (open_req ~width:64 ~height:48 "motion")))
      ()
  in
  List.iter Thread.join (List.init n opener);
  let ok = Array.to_list results |> List.filter Result.is_ok |> List.length in
  let shed =
    Array.to_list results
    |> List.filter (function Error d -> code_of d = "KF0803" | Ok _ -> false)
    |> List.length
  in
  Alcotest.(check int) "exactly one open admitted" 1 ok;
  Alcotest.(check int) "the rest shed with KF0803" (n - 1) shed;
  Alcotest.(check int) "one stream active" 1 (gauge server "streams_active");
  Alcotest.(check int) "sheds counted" (n - 1) (counter server "streams_shed")

let test_stream_backpressure_retry () =
  with_server @@ fun socket server ->
  Svc.Client.with_connection ~socket (fun c ->
      let opened = expect_ok (Svc.Client.stream_open c (open_req ~width:16 ~height:12 "motion")) in
      let id = stream_id opened in
      (* A bare push under the shed fault surfaces the typed KF0805 and,
         crucially, does NOT advance the stream. *)
      Faults.with_spec "stream.shed@1" (fun () ->
          match Svc.Client.stream_push c (push_req id) with
          | Ok _ -> Alcotest.fail "shed push must fail without retries"
          | Error d -> Alcotest.(check string) "shed typed KF0805" "KF0805" (code_of d));
      Alcotest.(check int) "shed counted" 1 (counter server "frames_shed");
      let reply = expect_ok (Svc.Client.stream_push c (push_req id)) in
      Alcotest.(check (float 0.0)) "shed frame did not advance the stream" 0.0
        (num (field "seq" reply));
      (* The retry helper absorbs the same shed transparently. *)
      Faults.with_spec "stream.shed@1" (fun () ->
          let retry = { Svc.Client.default_retry with attempts = 3; backoff_ms = 5.0 } in
          let reply = expect_ok (Svc.Client.stream_push_retry ~retry c (push_req id)) in
          Alcotest.(check (float 0.0)) "retried push lands exactly once" 1.0
            (num (field "seq" reply)));
      Alcotest.(check int) "both sheds counted" 2 (counter server "frames_shed");
      Alcotest.(check int) "two frames processed" 2 (counter server "frames_pushed");
      ignore (expect_ok (Svc.Client.stream_close c id));
      Ok ())
  |> expect_ok

let test_stream_drain_on_stop () =
  (* SIGTERM with live streams: signal_stop + wait must join every
     worker and release every session — no leaked plan handles, the
     gauge back at zero, the socket gone. *)
  let socket = temp_socket () in
  let cache = Cache.Plan_cache.create () in
  let crash_dir = temp_dir "kfuse-stream-crash" in
  Kfuse_util.Pool.with_pool 2 (fun pool ->
      match Svc.Server.start ~socket ~cache ~pool ~crash_dir () with
      | Error d -> Alcotest.failf "start failed: %s" (Diag.to_string d)
      | Ok server ->
        Svc.Client.with_connection ~socket (fun c ->
            let a = expect_ok (Svc.Client.stream_open c (open_req ~width:16 ~height:12 "motion")) in
            let b = expect_ok (Svc.Client.stream_open c (open_req ~width:16 ~height:12 "tharris")) in
            ignore (expect_ok (Svc.Client.stream_push c (push_req (stream_id a))));
            ignore (expect_ok (Svc.Client.stream_push c (push_req (stream_id b))));
            Ok ())
        |> expect_ok;
        Alcotest.(check int) "two live streams" 2 (gauge server "streams_active");
        Svc.Server.signal_stop server;
        Svc.Server.wait server;
        Alcotest.(check int) "drain released every stream" 0
          (gauge server "streams_active");
        Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket))

let test_stream_crash_quarantine_temporal () =
  (* The acceptance chaos scenario: a healthy native stream, then every
     execution crashes (exec.crash), the breaker trips mid-stream, and
     the remaining frames are served by the interpreter — with the
     temporal window intact, so the whole pixel history is bit-exact
     against an all-interpreter reference session. *)
  require_toolchain ();
  with_server ~breaker_threshold:2 @@ fun socket server ->
  let width = 8 and height = 6 in
  let reference = reference_session ~app:"motion" ~width ~height in
  Svc.Client.with_connection ~socket (fun c ->
      let opened = expect_ok (Svc.Client.stream_open c (open_req ~width ~height "motion")) in
      let id = stream_id opened in
      let push_and_check i =
        let reply =
          expect_ok
            (Svc.Client.stream_push c (push_req ~verify:true ~return_pixels:true id))
        in
        Alcotest.(check (float 0.0))
          (Printf.sprintf "frame %d verify exact" i)
          0.0
          (num (field "max_abs_diff" reply));
        let frame = Frames.synthetic ~seed:42 ~width ~height ~index:i in
        check_pixels_match (Session.push reference frame) reply;
        field "exec" reply
      in
      let is_true ex name = Jsonx.member name ex = Some (Jsonx.Bool true) in
      (* Frames 0-1: the pinned native plan answers. *)
      for i = 0 to 1 do
        let ex = push_and_check i in
        Alcotest.(check bool)
          (Printf.sprintf "frame %d native" i)
          false (is_true ex "fallback")
      done;
      (* Frames 2-3: every native execution crashes.  The frames still
         ship — interpreter fallback on the same bindings — and the
         second consecutive crash trips the breaker. *)
      Faults.with_spec "exec.crash/1" (fun () ->
          for i = 2 to 3 do
            let ex = push_and_check i in
            Alcotest.(check bool)
              (Printf.sprintf "frame %d fell back" i)
              true (is_true ex "fallback")
          done);
      Alcotest.(check int) "crashes counted" 2 (counter server "native_exec_crashes");
      Alcotest.(check int) "breaker tripped" 1 (gauge server "quarantined_plans");
      (* Frames 4-5: faults cleared, but the plan is quarantined (the
         cooldown has not elapsed): the interpreter keeps answering. *)
      for i = 4 to 5 do
        let ex = push_and_check i in
        Alcotest.(check bool)
          (Printf.sprintf "frame %d quarantined" i)
          true (is_true ex "quarantined");
        Alcotest.(check bool)
          (Printf.sprintf "frame %d interpreter" i)
          true
          (Jsonx.member "mode" ex = Some (Jsonx.Str "interpreter"))
      done;
      let closed = expect_ok (Svc.Client.stream_close c id) in
      Alcotest.(check (float 0.0)) "all six frames shipped" 6.0
        (num (field "frames" closed));
      Ok ())
  |> expect_ok

(* A reply output's summary fields, each as the reply encodes it. *)
let summary_fields out =
  List.map (fun k -> (k, Jsonx.to_string (field k out))) [ "width"; "height"; "min"; "max"; "mean" ]

let expected_fields (name, img) =
  let s = Native.summarize img in
  let num f = Jsonx.to_string (Jsonx.Num f) in
  ( name,
    [
      ("width", num (float_of_int s.Native.width));
      ("height", num (float_of_int s.Native.height));
      ("min", num s.Native.min);
      ("max", num s.Native.max);
      ("mean", num (Native.mean s));
    ] )

(* Pushes that ask for no pixels, through the ring and the plan's
   summaries: tharris (depth 2) for 10 frames under both sandbox
   policies, each reply's summaries those of an all-interpreter session,
   also on the two frames whose native run crashes (exec.crash; a
   sandboxed runner acts it out) and fall back to the interpreter. *)
let test_stream_ring_summaries exec_sandbox () =
  require_toolchain ();
  let width = 24 and height = 18 in
  let sandboxed = exec_sandbox = Kfuse_exec.Supervisor.Sandboxed in
  with_server ~exec_sandbox ~breaker_threshold:3 @@ fun socket _server ->
  let reference = reference_session ~app:"tharris" ~width ~height in
  Svc.Client.with_connection ~socket (fun c ->
      let opened = expect_ok (Svc.Client.stream_open c (open_req ~width ~height "tharris")) in
      Alcotest.(check (float 0.0)) "tharris streams at depth 2" 2.0 (num (field "depth" opened));
      let id = stream_id opened in
      for i = 0 to 9 do
        let crash = i = 4 || i = 5 in
        let push () = expect_ok (Svc.Client.stream_push c (push_req id)) in
        let reply = if crash then Faults.with_spec "exec.crash/1" push else push () in
        let frame = Frames.synthetic ~seed:42 ~width ~height ~index:i in
        let want = List.map expected_fields (Session.push reference frame) in
        let got =
          match field "outputs" reply with
          | Jsonx.Arr outs ->
            List.map
              (fun out ->
                Alcotest.(check bool) "no pixels" true (Jsonx.member "pixels" out = None);
                (str (field "name" out), summary_fields out))
              outs
          | v -> Alcotest.failf "outputs is not an array: %s" (Jsonx.to_string v)
        in
        Alcotest.(check (list (pair string (list (pair string string)))))
          (Printf.sprintf "frame %d summaries" i) want got;
        Alcotest.(check bool) (Printf.sprintf "frame %d fell back" i) (sandboxed && crash)
          (Jsonx.member "fallback" (field "exec" reply) = Some (Jsonx.Bool true))
      done;
      ignore (expect_ok (Svc.Client.stream_close c id));
      Ok ())
  |> expect_ok

(* A warm push that asks for no pixels allocates no frame-sized array:
   its frame is drawn into the session's ring, and the pinned plan runs
   into output buffers it keeps.  Server and client share this process
   and its domain, so the major-heap words allocated across a push are
   the push's.  Nor does drawing the frame allocate its blob terms: 51
   warm pushes run alone measured 43-331 words, and one push in a full
   test run 2,317, so the bound is npix/32 (8,192). *)
let test_push_allocates_no_frame () =
  require_toolchain ();
  let extent = 512 in
  let npix = extent * extent in
  with_server ~exec_sandbox:Kfuse_exec.Supervisor.Dlopen_trusted @@ fun socket _server ->
  Svc.Client.with_connection ~socket (fun c ->
      let opened =
        expect_ok (Svc.Client.stream_open c (open_req ~width:extent ~height:extent "motion"))
      in
      let id = stream_id opened in
      let push () =
        let reply = expect_ok (Svc.Client.stream_push c (push_req id)) in
        Alcotest.(check bool) "pushed natively" true
          (Jsonx.member "mode" (field "exec" reply) = Some (Jsonx.Str "dlopen"))
      in
      for _ = 1 to 3 do
        push ()
      done;
      for i = 1 to 3 do
        Gc.minor ();
        let before = (Gc.quick_stat ()).Gc.major_words in
        push ();
        Gc.minor ();
        let words = (Gc.quick_stat ()).Gc.major_words -. before in
        if words >= float_of_int (npix / 32) then
          Alcotest.failf "warm push %d allocated %.0f major words (bound %d)" i words (npix / 32)
      done;
      ignore (expect_ok (Svc.Client.stream_close c id));
      Ok ())
  |> expect_ok

let test_stream_compile_once_bitexact () =
  (* The per-frame overhead contract: opening a stream compiles exactly
     once (a real compiler invocation, the cache dir is fresh), pushes
     reuse the pinned plan with zero further compiles, and a 10-frame
     motion sequence is bit-exact native-vs-interpreter. *)
  require_toolchain ();
  let cache_dir = temp_dir "kfuse-stream-cache" in
  with_server ~cache_dir @@ fun socket _server ->
  let width = 16 and height = 12 in
  let reference = reference_session ~app:"motion" ~width ~height in
  Svc.Client.with_connection ~socket (fun c ->
      let before = Native.compiles () in
      let opened = expect_ok (Svc.Client.stream_open c (open_req ~width ~height "motion")) in
      Alcotest.(check int) "open compiles exactly once" 1 (Native.compiles () - before);
      Alcotest.(check bool) "fresh cache dir: not a cache hit" false
        (field "artifact_cached" (field "exec" opened) = Jsonx.Bool true);
      let id = stream_id opened in
      let after_open = Native.compiles () in
      for i = 0 to 9 do
        let reply =
          expect_ok
            (Svc.Client.stream_push c (push_req ~verify:true ~return_pixels:true id))
        in
        Alcotest.(check (float 0.0))
          (Printf.sprintf "frame %d native vs interpreter" i)
          0.0
          (num (field "max_abs_diff" reply));
        let frame = Frames.synthetic ~seed:42 ~width ~height ~index:i in
        check_pixels_match (Session.push reference frame) reply
      done;
      Alcotest.(check int) "pushes never compile" 0 (Native.compiles () - after_open);
      ignore (expect_ok (Svc.Client.stream_close c id));
      (* A second stream of the same pipeline reuses the artifact: the
         compile cache, not the compiler. *)
      let second = expect_ok (Svc.Client.stream_open c (open_req ~width ~height "motion")) in
      Alcotest.(check int) "second open is a cache hit" 0
        (Native.compiles () - after_open);
      Alcotest.(check bool) "reply says cached" true
        (field "artifact_cached" (field "exec" second) = Jsonx.Bool true);
      ignore (expect_ok (Svc.Client.stream_close c (stream_id second)));
      Ok ())
  |> expect_ok

(* The concurrency soak: 8 threads, each on its own connection, open a
   512x512 motion stream, push 60 frames through the client's shed
   retry and close.  Every frame lands natively, the registry and the
   metrics text account for every stream and frame, and a stop drains
   with the socket gone.  One artifact cache serves both policy rows. *)
let soak_cache_dir = lazy (temp_dir "kfuse-stream-soak")

let test_stream_soak exec_sandbox () =
  require_toolchain ();
  let streams = 8 and frames = 60 and extent = 512 in
  let mode =
    match exec_sandbox with
    | Kfuse_exec.Supervisor.Sandboxed -> "subprocess"
    | Kfuse_exec.Supervisor.Dlopen_trusted -> "dlopen"
  in
  with_server ~cache_dir:(Lazy.force soak_cache_dir) ~exec_sandbox @@ fun socket server ->
  let retry = { Svc.Client.default_retry with attempts = 8; backoff_ms = 10.0 } in
  let drive i =
    Svc.Client.with_connection ~socket @@ fun c ->
    let ( let* ) = Result.bind in
    let* opened =
      Svc.Client.stream_open c (open_req ~seed:(42 + i) ~width:extent ~height:extent "motion")
    in
    let id = stream_id opened in
    let rec push n landed =
      if n = frames then Ok landed
      else
        let* reply = Svc.Client.stream_push_retry ~retry c (push_req id) in
        let native = Jsonx.member "mode" (field "exec" reply) = Some (Jsonx.Str mode) in
        push (n + 1) (if native then landed + 1 else landed)
    in
    let* landed = push 0 0 in
    let* closed = Svc.Client.stream_close c id in
    Ok (str (field "mode" (field "exec" opened)), landed, num (field "frames" closed))
  in
  let results = Array.make streams (Error (Diag.v Diag.Service_error "stream never ran")) in
  List.init streams (fun i ->
      Thread.create (fun () -> results.(i) <- (try drive i with e -> Error (Diag.of_exn e))) ())
  |> List.iter Thread.join;
  Array.iteri
    (fun i r ->
      let opened_mode, landed, closed_frames = expect_ok r in
      Alcotest.(check string) (Printf.sprintf "stream %d opened %s" i mode) mode opened_mode;
      Alcotest.(check int) (Printf.sprintf "stream %d: every frame ran %s" i mode) frames landed;
      Alcotest.(check (float 0.0))
        (Printf.sprintf "stream %d closed at %d frames" i frames)
        (float_of_int frames) closed_frames)
    results;
  let total = streams * frames in
  Alcotest.(check int) "streams_opened" streams (counter server "streams_opened");
  Alcotest.(check int) "streams_closed" streams (counter server "streams_closed");
  Alcotest.(check int) "frames_pushed" total (counter server "frames_pushed");
  Alcotest.(check int) "streams_active" 0 (gauge server "streams_active");
  Alcotest.(check int) "no interpreter fallback" 0 (counter server "native_exec_fallbacks");
  let text = expect_ok (Svc.Client.with_connection ~socket Svc.Client.metrics) in
  let lines = String.split_on_char '\n' text in
  List.iter
    (fun line -> Alcotest.(check bool) ("metrics: " ^ line) true (List.mem line lines))
    [
      "kfused_streams_active 0";
      Printf.sprintf "kfused_streams_opened_total %d" streams;
      Printf.sprintf "kfused_streams_closed_total %d" streams;
      Printf.sprintf "kfused_frames_pushed_total %d" total;
    ];
  Svc.Server.signal_stop server;
  Svc.Server.wait server;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket)

let suite =
  [
    Alcotest.test_case "temporal: naming convention and analysis" `Quick
      test_temporal_analysis;
    Alcotest.test_case "session: cold-start clamp and ring eviction" `Quick
      test_session_window;
    Alcotest.test_case "session: interpreter matches manual lagged eval" `Quick
      test_session_matches_manual_eval;
    Alcotest.test_case "protocol: stream ops round-trip" `Quick test_protocol_roundtrip;
    Alcotest.test_case "stream: open/push/close lifecycle" `Quick test_stream_lifecycle;
    Alcotest.test_case "stream: unknown id is a typed KF0806" `Quick
      test_stream_unknown_id;
    Alcotest.test_case "stream: capacity shed with KF0803, slot freed on close" `Quick
      (test_capacity_shed stream_kind);
    Alcotest.test_case "stream: idle sessions are reaped lazily" `Quick
      (test_idle_expiry stream_kind);
    Alcotest.test_case "lazy: capacity shed with KF0803, slot freed on close" `Quick
      (test_capacity_shed lazy_kind);
    Alcotest.test_case "lazy: idle sessions are reaped lazily" `Quick
      (test_idle_expiry lazy_kind);
    Alcotest.test_case "stream: concurrent cold opens respect max_streams" `Slow
      test_concurrent_open_bound;
    Alcotest.test_case "stream: backpressure shed retried exactly once" `Quick
      test_stream_backpressure_retry;
    Alcotest.test_case "stream: stop drains and releases live streams" `Quick
      test_stream_drain_on_stop;
    Alcotest.test_case "stream: mid-stream crash quarantines, history bit-exact" `Slow
      test_stream_crash_quarantine_temporal;
    Alcotest.test_case "stream: one compile per stream, 10 frames bit-exact" `Slow
      test_stream_compile_once_bitexact;
    Alcotest.test_case "stream: soak, 8 x 60 frames at 512x512, sandboxed" `Slow
      (test_stream_soak Kfuse_exec.Supervisor.Sandboxed);
    Alcotest.test_case "stream: soak, 8 x 60 frames at 512x512, dlopen-trusted" `Slow
      (test_stream_soak Kfuse_exec.Supervisor.Dlopen_trusted);
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20261018 |])
      prop_synthetic_reference;
    Alcotest.test_case "frames: 512x512 equals the reference" `Quick test_synthetic_512;
    Alcotest.test_case "frames: golden digests" `Quick test_synthetic_golden;
    Alcotest.test_case "session: frames drawn through the ring" `Quick test_session_ring;
    Alcotest.test_case "stream: ring summaries, sandboxed" `Slow
      (test_stream_ring_summaries Kfuse_exec.Supervisor.Sandboxed);
    Alcotest.test_case "stream: ring summaries, dlopen-trusted" `Slow
      (test_stream_ring_summaries Kfuse_exec.Supervisor.Dlopen_trusted);
    Alcotest.test_case "stream: a warm summary push allocates no frame" `Slow
      test_push_allocates_no_frame;
  ]
