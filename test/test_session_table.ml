(* Session_table under concurrency: a stateful property test.

   QCheck generates one schedule of open/use/close/expire/drain
   operations per domain; four domains run them against one table at
   once.  The payloads are fakes whose build step sleeps, so concurrent
   opens overlap their builds the way stream opens overlap a compile.
   Invariants, checked while the schedule runs and after it:
   - the open sessions never exceed the bound;
   - the [<prefix>_active] gauge equals the table size;
   - every built payload is released exactly once, and never used or
     closed after its release;
   - users of one session never overlap. *)

module T = Kfuse_service.Session_table
module Metrics = Kfuse_service.Metrics

type outcome = Built | Fails | Raises

type op =
  | Open of outcome
  | Use of int  (* the n of the id "s-n"; many are unknown on purpose *)
  | Close of int
  | Expire
  | Drain

let pp_op = function
  | Open Built -> "open"
  | Open Fails -> "open(fails)"
  | Open Raises -> "open(raises)"
  | Use n -> Printf.sprintf "use s-%d" n
  | Close n -> Printf.sprintf "close s-%d" n
  | Expire -> "expire"
  | Drain -> "drain"

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, return (Open Built));
        (1, return (Open Fails));
        (1, return (Open Raises));
        (4, map (fun n -> Use n) (int_bound 11));
        (2, map (fun n -> Close n) (int_bound 11));
        (1, return Expire);
        (1, return Drain);
      ])

let domains = 4
let bound = 2

(* Four per-domain schedules plus the per-session in-flight bound
   ([None] is the lazy kind, [Some n] the stream kind). *)
let schedule_arb =
  QCheck.make
    ~print:(fun (scheds, max_in_flight) ->
      Printf.sprintf "max_in_flight %s\n%s"
        (match max_in_flight with None -> "none" | Some n -> string_of_int n)
        (String.concat "\n"
           (List.mapi
              (fun i ops -> Printf.sprintf "domain %d: %s" i (String.concat "; " (List.map pp_op ops)))
              scheds)))
    QCheck.Gen.(
      pair
        (list_repeat domains (list_size (int_range 1 12) op_gen))
        (opt (int_range 1 2)))

type payload = { released : int Atomic.t; users : int Atomic.t }

exception Build_raised

let run_schedule (scheds, max_in_flight) =
  let violations = ref [] and vlock = Mutex.create () in
  let violation fmt =
    Printf.ksprintf
      (fun m ->
        Mutex.lock vlock;
        violations := m :: !violations;
        Mutex.unlock vlock)
      fmt
  in
  let built = ref [] in
  let metrics = Metrics.create () in
  let now = Atomic.make 0.0 in
  let t =
    T.create ~metrics ~prefix:"sess" ~id_prefix:"s" ~max_sessions:bound ?max_in_flight
      ~idle_ms:1000.0 ~clock:(fun () -> Atomic.get now)
      ~release:(fun p -> Atomic.incr p.released)
      ()
  in
  let touch what p =
    if Atomic.get p.released <> 0 then violation "%s after release" what;
    if Atomic.fetch_and_add p.users 1 <> 0 then violation "overlapping users in %s" what;
    Unix.sleepf 0.0002;
    Atomic.decr p.users
  in
  let step = function
    | Open outcome -> (
      let build () =
        Unix.sleepf 0.0005;
        match outcome with
        | Fails -> Error ()
        | Raises -> raise Build_raised
        | Built ->
          let p = { released = Atomic.make 0; users = Atomic.make 0 } in
          Mutex.lock vlock;
          built := p :: !built;
          Mutex.unlock vlock;
          Ok (p, ())
      in
      match T.open_ t ~shed:(fun _ -> ()) build with
      | Ok _ | Error () -> ()
      | exception Build_raised -> ())
    | Use n -> ignore (T.use t (Printf.sprintf "s-%d" n) (touch "use"))
    | Close n -> ignore (T.close t (Printf.sprintf "s-%d" n) (touch "close"))
    | Expire ->
      (* Past the idle horizon for everything open now. *)
      Atomic.set now (Atomic.get now +. 10.0);
      T.expire t
    | Drain -> T.drain t
  in
  let workers =
    List.map
      (fun ops ->
        Domain.spawn (fun () ->
            List.iter
              (fun op ->
                step op;
                let n = T.active t in
                if n > bound then violation "%d sessions open, bound %d" n bound)
              ops))
      scheds
  in
  List.iter Domain.join workers;
  let gauge () = Metrics.gauge metrics "sess_active" in
  if gauge () <> T.active t then violation "gauge %d, table %d" (gauge ()) (T.active t);
  T.drain t;
  if gauge () <> 0 then violation "gauge %d after the final drain" (gauge ());
  List.iter
    (fun p ->
      let n = Atomic.get p.released in
      if n <> 1 then violation "a payload released %d times" n)
    !built;
  match !violations with
  | [] -> true
  | vs -> QCheck.Test.fail_report (String.concat "\n" (List.sort_uniq compare vs))

let prop_session_table =
  QCheck.Test.make ~count:200 ~name:"bound, gauge and exactly-once release under 4 domains"
    schedule_arb run_schedule

let test_build_failure_frees_slot () =
  let metrics = Metrics.create () in
  let t =
    T.create ~metrics ~prefix:"sess" ~id_prefix:"s" ~max_sessions:1 ~idle_ms:0.0
      ~release:ignore ()
  in
  let shed n = Printf.sprintf "shed at %d" n in
  (match T.open_ t ~shed (fun () -> Error "no") with
  | Error e -> Alcotest.(check string) "build error passed through" "no" e
  | Ok _ -> Alcotest.fail "failed build opened a session");
  (match T.open_ t ~shed (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "build exception swallowed");
  (match T.open_ t ~shed (fun () -> Ok ((), 7)) with
  | Ok (id, r) ->
    Alcotest.(check string) "ids count admitted sessions only" "s-0" id;
    Alcotest.(check int) "build result returned" 7 r
  | Error e -> Alcotest.failf "slot leaked by failed builds: %s" e);
  (match T.open_ t ~shed (fun () -> Ok ((), 0)) with
  | Error e -> Alcotest.(check string) "shed at the bound" "shed at 1" e
  | Ok _ -> Alcotest.fail "opened past the bound");
  Alcotest.(check int) "one shed counted" 1 (Metrics.counter metrics "sess_shed");
  Alcotest.(check int) "one open counted" 1 (Metrics.counter metrics "sess_opened");
  Alcotest.(check int) "gauge" 1 (Metrics.gauge metrics "sess_active")

let suite =
  [
    Alcotest.test_case "failed builds free their slot" `Quick test_build_failure_frees_slot;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20261016 |]) prop_session_table;
  ]
