(* The four closed-loop workloads: how each starts and warms its daemon,
   the correctness references it takes before measuring, its measured
   loop, and the check on every reply.  A caller waits for each reply
   before sending its next request; a workload has one or two callers,
   each on its own connection. *)

module Svc = Kfuse_service
module Protocol = Svc.Protocol
module Client = Svc.Client
module Jsonx = Svc.Jsonx
module Diag = Kfuse_util.Diag
module Rng = Kfuse_util.Rng

(* ---- failure accounting ---- *)

type acct = {
  lock : Mutex.t;
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;  (** failed output checks, counted in [failed] too *)
  mutable retries : int;  (** shed stream pushes sent again *)
}

let acct () = { lock = Mutex.create (); attempted = 0; failed = 0; wrong = 0; retries = 0 }

let locked a f =
  Mutex.lock a.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock a.lock) f

let attempt a = locked a (fun () -> a.attempted <- a.attempted + 1)

let fail ?(wrong = false) a msg =
  locked a (fun () ->
      a.failed <- a.failed + 1;
      if wrong then a.wrong <- a.wrong + 1;
      if a.failed <= 20 then prerr_endline ("kfbench: failed: " ^ msg))

type ctx = {
  kfusec : string;
  size : Inputs.size;
  seed : int;
  acct : acct;
  pool : Inputs.dag array Lazy.t;  (** the plan-mix repeat pool *)
}

(* One measured operation: its class (app, stream, request kind or edit
   kind), when it completed, its round trip, the paper-exec pass it
   belongs to, whether it was traced, and its reply size (traced
   operations only). *)
type sample = { cls : string; at : float; ms : float; pass : int; traced : bool; bytes : int }

(* One measured stretch of a loop.  [requests] counts every request the
   stretch sent, the check-only ones included. *)
type stretch = { samples : sample list; wall_s : float; requests : int }

type running = {
  daemon : Daemon.t;
  arm : unit -> unit;  (** correctness references, before the first loop *)
  loop : traced:bool -> seconds:float -> tick:(int -> unit) -> stretch;
      (** With [traced], every other operation is traced, so that traced
          and untraced ones share the same stretch of time.  [tick n] is
          called after every [n] completed requests. *)
  close : unit -> unit;  (** release sessions before teardown *)
  stats_sockets : string list;
      (** the servers whose [stats] op reports plan-cache and shed counters *)
}

let now = Unix.gettimeofday

(* A thread's loop stops at its first failed request: the connection may
   be gone, and the failure is already counted. *)
exception Abort

(* [request ctx ~traced ?parent c op req] sends one counted request and
   returns the reply with its round trip in ms. *)
let request ctx ~traced ?parent c op req =
  attempt ctx.acct;
  let span =
    if not traced then None
    else
      let req = match parent with Some p -> p.Span.req | None -> Span.fresh_req () in
      Some (Span.enter ?parent ~req ("client." ^ op))
  in
  let t0 = now () in
  let r = Client.request c req in
  let ms = (now () -. t0) *. 1000. in
  Option.iter Span.leave span;
  match r with
  | Ok v -> (v, ms)
  | Error d ->
    fail ctx.acct (op ^ ": " ^ Diag.to_string d);
    raise Abort

let check ctx ok msg = if not ok then fail ~wrong:true ctx.acct msg

let reply_bytes ~traced r = if traced then String.length (Jsonx.to_string r) else 0

let connection ctx socket f =
  match
    Client.with_connection ~socket ~timeout_ms:120_000. (fun c ->
        (try f c with
        | Abort -> ()
        | e -> fail ctx.acct ("client: " ^ Printexc.to_string e));
        Ok ())
  with
  | Ok () -> ()
  | Error d ->
    attempt ctx.acct;
    fail ctx.acct ("connect: " ^ Diag.to_string d)

let in_threads n f = List.iter Thread.join (List.init n (Thread.create f))

let ready d is_ready =
  match Daemon.await d ~ready:is_ready with
  | Ok () -> ()
  | Error msg -> failwith (msg ^ "; see " ^ d.Daemon.log ^ "\n" ^ Daemon.read_file d.Daemon.log)

let fuse_request ?app ?source () =
  {
    Protocol.app;
    source;
    strategy = Kfuse_fusion.Driver.Mincut;
    c_mshared = None;
    gamma = None;
    tg = None;
    optimize = false;
    inline = false;
    strict = false;
    budget_ms = None;
    no_cache = false;
  }

let exec_field f name r = Option.bind (Jsonx.member "exec" r) (f name)

let serve_args ~dir ~socket =
  [
    "serve"; "--socket"; socket;
    "--cache-dir"; Daemon.absolute (Filename.concat dir "cache");
    "--crash-dir"; Daemon.absolute (Filename.concat dir "crash");
  ]

(* ---- paper-exec ---- *)

(* Name, min, max and mean of every output of an execution reply. *)
let outputs r =
  Option.value ~default:[] (Option.bind (Jsonx.member "outputs" r) Jsonx.arr)
  |> List.map (fun o ->
         ( Jsonx.mem_str "name" o,
           Jsonx.mem_num "min" o,
           Jsonx.mem_num "max" o,
           Jsonx.mem_num "mean" o ))

let paper_exec ctx ~dir =
  let socket = Filename.concat dir "d.sock" in
  let d = Daemon.spawn ~kfusec:ctx.kfusec ~dir ~socket (serve_args ~dir ~socket) in
  ready d (Daemon.pings d);
  let side = ctx.size.Inputs.side in
  let req app verify =
    Protocol.Fuse_exec
      {
        fuse = fuse_request ~app ();
        exec_mode = None;
        width = Some side;
        height = Some side;
        seed = Inputs.input_seed ctx.seed app;
        repeat = 1;
        verify;
        return_pixels = false;
      }
  in
  let clean app r =
    check ctx
      (Jsonx.mem_bool "degraded" r = Some false
      && exec_field Jsonx.mem_str "mode" r = Some "subprocess"
      && exec_field Jsonx.mem_bool "sandboxed" r = Some true
      && exec_field Jsonx.mem_bool "quarantined" r = Some false)
      (app ^ ": not a clean sandboxed native execution");
    outputs r
  in
  (* Warm: plan and compile every app once. *)
  let first = Hashtbl.create 8 in
  connection ctx socket (fun c ->
      Array.iter
        (fun app ->
          let r, _ = request ctx ~traced:false c "fuse_exec" (req app false) in
          Hashtbl.replace first app (clean app r))
        Inputs.apps);
  (* The interpreter reference: slow at 1024², so it is taken once, after
     the timed set-ups. *)
  let reference = Hashtbl.create 8 in
  let arm () =
    connection ctx socket (fun c ->
        Array.iter
          (fun app ->
            let r, _ = request ctx ~traced:false c "fuse_exec" (req app true) in
            check ctx
              (Jsonx.mem_num "max_abs_diff" r = Some 0.0)
              (app ^ ": native output differs from the interpreter");
            let o = clean app r in
            check ctx (Hashtbl.find_opt first app = Some o)
              (app ^ ": warm-up output differs from the verified one");
            Hashtbl.replace reference app o)
          Inputs.apps)
  in
  let rng = Rng.create (Inputs.sub ctx.seed "paper-exec") in
  let pass = ref 0 in
  let loop ~traced ~seconds ~tick =
    let t0 = now () in
    let until = t0 +. seconds in
    let samples = ref [] and n = ref 0 in
    connection ctx socket (fun c ->
        while now () < until do
          Array.iter
            (fun app ->
              if now () < until then begin
                let traced = traced && !n land 1 = 0 in
                let r, ms = request ctx ~traced c "fuse_exec" (req app false) in
                incr n;
                tick 1;
                check ctx
                  (Hashtbl.find_opt reference app = Some (clean app r))
                  (app ^ ": output differs from the verified reply");
                let bytes = reply_bytes ~traced r in
                samples := { cls = app; at = now (); ms; pass = !pass; traced; bytes } :: !samples
              end)
            (Inputs.shuffle rng Inputs.apps);
          incr pass
        done);
    { samples = List.rev !samples; wall_s = now () -. t0; requests = !n }
  in
  { daemon = d; arm; loop; close = ignore; stats_sockets = [ socket ] }

(* ---- motion-stream ---- *)

let shed (d : Diag.t) =
  match d.Diag.code with Diag.Stream_backpressure | Diag.Overloaded -> true | _ -> false

let motion_stream ctx ~dir =
  let socket = Filename.concat dir "d.sock" in
  (* OMP_NUM_THREADS=1: with an OpenMP team, dlopen-trusted crashes
     (see README.md, known defects). *)
  let d =
    Daemon.spawn ~kfusec:ctx.kfusec ~dir ~socket
      ~env:[ ("OMP_NUM_THREADS", "1") ]
      (serve_args ~dir ~socket @ [ "--exec-sandbox"; "dlopen-trusted" ])
  in
  ready d (Daemon.pings d);
  let side = ctx.size.Inputs.stream_side in
  let ids = Array.make Inputs.streams "" in
  connection ctx socket (fun c ->
      for i = 0 to Inputs.streams - 1 do
        let r, _ =
          request ctx ~traced:false c "stream_open"
            (Protocol.Stream_open
               {
                 fuse = fuse_request ~app:"motion" ();
                 exec_mode = None;
                 width = Some side;
                 height = Some side;
                 seed = Inputs.stream_seed ctx.seed i;
               })
        in
        check ctx
          (exec_field Jsonx.mem_str "mode" r = Some "dlopen")
          "stream_open: the plan is not pinned in-process";
        ids.(i) <- Option.value ~default:"" (Jsonx.mem_str "id" r)
      done);
  let pushed = Array.make Inputs.streams 0 in
  (* A shed push was rejected before it touched the stream, so it is
     sent again verbatim; only a push still shed after three tries
     fails. *)
  let rec push ~traced c i ~verify tries =
    let req = Protocol.Stream_push { id = ids.(i); verify; return_pixels = false } in
    let span =
      if traced then Some (Span.enter ~req:(Span.fresh_req ()) "client.stream_push") else None
    in
    let t0 = now () in
    let r = Client.request c req in
    let ms = (now () -. t0) *. 1000. in
    Option.iter Span.leave span;
    match r with
    | Ok v -> (v, ms)
    | Error e when shed e && tries < 3 ->
      locked ctx.acct (fun () -> ctx.acct.retries <- ctx.acct.retries + 1);
      Thread.delay 0.005;
      push ~traced c i ~verify (tries + 1)
    | Error e ->
      fail ctx.acct ("stream_push: " ^ Diag.to_string e);
      raise Abort
  in
  (* One caller pushes to the streams in turn, so both sessions stay live
     and interleaved on the daemon.  A push already uses more than one
     core (frame synthesis and the kernel), so a second concurrent caller
     on a 2-core host would measure the scheduler, not the stream path. *)
  let loop ~traced ~seconds ~tick =
    let t0 = now () in
    let until = t0 +. seconds in
    let samples = ref [] and n = ref 0 in
    connection ctx socket (fun c ->
        while now () < until do
          let i = !n mod Inputs.streams in
          let k = pushed.(i) in
          (* Every 50th push is verified against the interpreter and
             left out of the latency samples. *)
          let verify = (k + 1) mod 50 = 0 in
          (* Every other round is traced, so each stream has both halves. *)
          let traced = traced && (!n / Inputs.streams) land 1 = 0 in
          attempt ctx.acct;
          let r, ms = push ~traced c i ~verify 0 in
          pushed.(i) <- k + 1;
          incr n;
          tick 1;
          check ctx
            (Jsonx.mem_num "seq" r = Some (float_of_int k)
            && exec_field Jsonx.mem_str "mode" r = Some "dlopen"
            && exec_field Jsonx.mem_bool "fallback" r = Some false)
            (Printf.sprintf "stream %d push %d: out of sequence or not native" i k);
          if verify then
            check ctx
              (Jsonx.mem_num "max_abs_diff" r = Some 0.0)
              (Printf.sprintf "stream %d frame %d differs from the interpreter" i k)
          else
            samples :=
              {
                cls = Printf.sprintf "stream%d" i;
                at = now ();
                ms;
                pass = -1;
                traced;
                bytes = reply_bytes ~traced r;
              }
              :: !samples
        done);
    { samples = List.rev !samples; wall_s = now () -. t0; requests = !n }
  in
  let close () =
    connection ctx socket (fun c ->
        Array.iteri
          (fun i id ->
            let r, _ = request ctx ~traced:false c "stream_close" (Protocol.Stream_close id) in
            check ctx
              (Jsonx.mem_num "frames" r = Some (float_of_int pushed.(i)))
              (Printf.sprintf "stream %d closed with a wrong frame count" i))
          ids)
  in
  { daemon = d; arm = ignore; loop; close; stats_sockets = [ socket ] }

(* ---- plan-mix ---- *)

(* What must repeat across replies for one text. *)
let plan_summary r =
  ( Jsonx.mem_num "kernels_in" r,
    Jsonx.mem_num "kernels_out" r,
    Jsonx.mem_num "objective" r,
    Option.map Jsonx.to_string (Jsonx.member "partition" r) )

let plan_mix ctx ~dir =
  let socket = Filename.concat dir "r.sock" and fleet = Filename.concat dir "fleet" in
  let d =
    Daemon.spawn ~kfusec:ctx.kfusec ~dir ~socket
      [ "shard-serve"; "--shards"; "2"; "--socket"; socket; "--shard-dir"; fleet ]
  in
  ready d (Daemon.pings d);
  ready d (Daemon.shards_up d);
  let pool = Lazy.force ctx.pool in
  let first = Hashtbl.create 1024 and lock = Mutex.create () in
  let fuse ~traced c text =
    let r, ms =
      request ctx ~traced c "fuse" (Protocol.Fuse (fuse_request ~source:text ()))
    in
    check ctx (Jsonx.mem_bool "degraded" r = Some false) "fuse: degraded plan";
    let s = plan_summary r in
    Mutex.lock lock;
    (match Hashtbl.find_opt first text with
    | Some s0 -> check ctx (s0 = s) "fuse: a reply differs from the first reply for its text"
    | None -> Hashtbl.replace first text s);
    Mutex.unlock lock;
    (r, ms, s)
  in
  (* Warm: plan every pool DAG once. *)
  in_threads 2 (fun t ->
      connection ctx socket (fun c ->
          Array.iteri
            (fun i (dag : Inputs.dag) -> if i mod 2 = t then ignore (fuse ~traced:false c dag.text))
            pool));
  let gens = Array.init 2 (Inputs.draws ctx.size ctx.seed pool) in
  let loop ~traced ~seconds ~tick =
    let t0 = now () in
    let until = t0 +. seconds in
    let per = Array.make 2 [] and n = Array.make 2 0 in
    in_threads 2 (fun t ->
        connection ctx socket (fun c ->
            while now () < until do
              let (dr : Inputs.draw) = gens.(t) () in
              let traced = traced && n.(t) land 1 = 0 in
              let r, ms, (_, _, obj, _) = fuse ~traced c dr.text in
              n.(t) <- n.(t) + 1;
              tick 1;
              (match dr.original with
              | Some o ->
                Mutex.lock lock;
                let orig = Hashtbl.find_opt first o in
                Mutex.unlock lock;
                check ctx
                  (match orig with Some (_, _, o_obj, _) -> o_obj = obj | None -> false)
                  "fuse: a renamed copy's objective differs from its original's"
              | None -> ());
              per.(t) <-
                { cls = dr.cls; at = now (); ms; pass = -1; traced; bytes = reply_bytes ~traced r }
                :: per.(t)
            done));
    {
      samples = List.concat_map List.rev (Array.to_list per);
      wall_s = now () -. t0;
      requests = n.(0) + n.(1);
    }
  in
  {
    daemon = d;
    arm = ignore;
    loop;
    close = ignore;
    stats_sockets = List.init 2 (fun i -> Filename.concat fleet (Printf.sprintf "shard-%d.sock" i));
  }

(* ---- lazy-edit ---- *)

let lazy_edit ctx ~dir =
  let socket = Filename.concat dir "d.sock" in
  let d = Daemon.spawn ~kfusec:ctx.kfusec ~dir ~socket (serve_args ~dir ~socket) in
  ready d (Daemon.pings d);
  let id = ref "" in
  let flush ~traced ?parent c ~scratch =
    let r, ms =
      request ctx ~traced ?parent c "lazy_flush" (Protocol.Lazy_flush { id = !id; scratch })
    in
    let fp = Option.value ~default:"" (Jsonx.mem_str "fingerprint" r) in
    check ctx (fp <> "") "lazy_flush: no plan fingerprint";
    (fp, ms, r)
  in
  (* Warm: build the session and plan it once. *)
  connection ctx socket (fun c ->
      let r, _ =
        request ctx ~traced:false c "lazy_open"
          (Protocol.Lazy_open
             {
               app = None;
               source = Some (Inputs.lazy_source ctx.size ctx.seed);
               width = None;
               height = None;
               channels = None;
               inputs = [];
               c_mshared = None;
               gamma = None;
               tg = None;
             })
      in
      id := Option.value ~default:"" (Jsonx.mem_str "id" r);
      ignore (flush ~traced:false c ~scratch:false : _ * _ * _));
  let edits = Inputs.edits ctx.size ctx.seed and ops = ref 0 in
  let loop ~traced ~seconds ~tick =
    let t0 = now () in
    let until = t0 +. seconds in
    let samples = ref [] and n = ref 0 in
    connection ctx socket (fun c ->
        while now () < until do
          let kind, command = edits () in
          let traced = traced && !ops land 1 = 0 in
          let parent =
            if traced then Some (Span.enter ~req:(Span.fresh_req ()) "client.lazy_op") else None
          in
          let edited, edit_ms =
            request ctx ~traced ?parent c "lazy_edit" (Protocol.Lazy_edit { id = !id; command })
          in
          let fp, flush_ms, flushed = flush ~traced ?parent c ~scratch:false in
          Option.iter Span.leave parent;
          incr ops;
          n := !n + 2;
          tick 2;
          samples :=
            {
              cls = kind;
              at = now ();
              ms = edit_ms +. flush_ms;
              pass = -1;
              traced;
              bytes = reply_bytes ~traced edited + reply_bytes ~traced flushed;
            }
            :: !samples;
          (* Every 16th flush is replanned from scratch: the two plans
             must be bit-identical. *)
          if !ops mod 16 = 0 then begin
            let scratch_fp, _, _ = flush ~traced:false c ~scratch:true in
            incr n;
            tick 1;
            check ctx (scratch_fp = fp) "lazy_flush: incremental plan differs from scratch"
          end
        done);
    { samples = List.rev !samples; wall_s = now () -. t0; requests = !n }
  in
  let close () =
    connection ctx socket (fun c ->
        ignore (request ctx ~traced:false c "lazy_close" (Protocol.Lazy_close !id)))
  in
  { daemon = d; arm = ignore; loop; close; stats_sockets = [ socket ] }

(* ---- the workload table ---- *)

(* [setups] is how many fresh set-ups an untraced run times: more for the
   cheap ones, so that their median rests on more samples. *)
type workload = { name : string; start : ctx -> dir:string -> running; setups : int }

let all =
  [
    { name = "paper-exec"; start = paper_exec; setups = 3 };
    { name = "motion-stream"; start = motion_stream; setups = 7 };
    { name = "plan-mix"; start = plan_mix; setups = 3 };
    { name = "lazy-edit"; start = lazy_edit; setups = 9 };
  ]
