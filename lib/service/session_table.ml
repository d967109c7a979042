type 'a entry = {
  payload : 'a;
  e_lock : Mutex.t;  (* serializes the session's users *)
  mutable last_used : float;
  mutable in_flight : int;  (* under the table lock *)
  mutable closed : bool;  (* under the table lock *)
}

type 'a t = {
  lock : Mutex.t;
  table : (string, 'a entry) Hashtbl.t;
  mutable reserved : int;  (* admitted opens whose build is still running *)
  mutable next_id : int;
  id_prefix : string;
  max_sessions : int;
  max_in_flight : int option;
  idle_ms : float;
  clock : unit -> float;
  release : 'a -> unit;
  metrics : Metrics.t;
  prefix : string;
}

type refusal = Unknown | Busy of int

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let metric t what = t.prefix ^ "_" ^ what

(* A session leaves the table in exactly one place per cause (close,
   expiry, drain), always under the lock, so the gauge tracks the table
   size exactly. *)
let remove t id e =
  Hashtbl.remove t.table id;
  e.closed <- true;
  Metrics.decr_gauge t.metrics (metric t "active")

let create ~metrics ~prefix ~id_prefix ~max_sessions ?max_in_flight ~idle_ms
    ?(clock = Unix.gettimeofday) ~release () =
  let t =
    {
      lock = Mutex.create ();
      table = Hashtbl.create 16;
      reserved = 0;
      next_id = 0;
      id_prefix;
      max_sessions;
      max_in_flight;
      idle_ms;
      clock;
      release;
      metrics;
      prefix;
    }
  in
  List.iter (fun w -> Metrics.touch metrics (metric t w)) [ "opened"; "closed"; "expired"; "shed" ];
  Metrics.adjust_gauge metrics (metric t "active") 0;
  t

let expire t =
  if t.idle_ms > 0.0 then begin
    let now = t.clock () in
    let doomed =
      locked t @@ fun () ->
      let doomed =
        Hashtbl.fold
          (fun id e acc ->
            if e.in_flight = 0 && (now -. e.last_used) *. 1000.0 > t.idle_ms then
              (id, e) :: acc
            else acc)
          t.table []
      in
      List.iter
        (fun (id, e) ->
          remove t id e;
          Metrics.incr t.metrics (metric t "expired"))
        doomed;
      doomed
    in
    (* Nothing was in flight and the sessions are gone from the table:
       no one else can reach these payloads. *)
    List.iter (fun (_, e) -> t.release e.payload) doomed
  end

let open_ t ~shed build =
  expire t;
  let admitted =
    locked t @@ fun () ->
    if Hashtbl.length t.table + t.reserved >= t.max_sessions then begin
      Metrics.incr t.metrics (metric t "shed");
      false
    end
    else begin
      t.reserved <- t.reserved + 1;
      true
    end
  in
  if not admitted then Error (shed t.max_sessions)
  else
    let unreserve () = t.reserved <- t.reserved - 1 in
    match build () with
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      locked t unreserve;
      Printexc.raise_with_backtrace e bt
    | Error _ as err ->
      locked t unreserve;
      err
    | Ok (payload, r) ->
      let entry =
        {
          payload;
          e_lock = Mutex.create ();
          last_used = t.clock ();
          in_flight = 0;
          closed = false;
        }
      in
      locked t @@ fun () ->
      unreserve ();
      let id = Printf.sprintf "%s-%d" t.id_prefix t.next_id in
      t.next_id <- t.next_id + 1;
      Hashtbl.replace t.table id entry;
      Metrics.incr t.metrics (metric t "opened");
      Metrics.incr_gauge t.metrics (metric t "active");
      Ok (id, r)

(* Exactly-once release: [closed && in_flight = 0] becomes true under the
   lock for exactly one thread — the remover when nothing is in flight,
   else the last user out. *)
let leave t e =
  let release_now =
    locked t @@ fun () ->
    e.in_flight <- e.in_flight - 1;
    e.last_used <- t.clock ();
    e.closed && e.in_flight = 0
  in
  if release_now then t.release e.payload

let run_entry t e f =
  Fun.protect ~finally:(fun () -> leave t e) @@ fun () ->
  Mutex.lock e.e_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock e.e_lock) (fun () -> f e)

let use t ?(busy = false) id f =
  expire t;
  let entered =
    locked t @@ fun () ->
    match Hashtbl.find_opt t.table id with
    | None -> Error Unknown
    | Some e ->
      let full = match t.max_in_flight with Some n -> e.in_flight >= n | None -> false in
      if busy || full then Error (Busy e.in_flight)
      else begin
        e.in_flight <- e.in_flight + 1;
        e.last_used <- t.clock ();
        Ok e
      end
  in
  Result.bind entered (fun e ->
      (* A close may have won the race for the session lock. *)
      run_entry t e (fun e -> if e.closed then Error Unknown else Ok (f e.payload)))

let close t id f =
  expire t;
  let removed =
    locked t @@ fun () ->
    match Hashtbl.find_opt t.table id with
    | None -> None
    | Some e ->
      remove t id e;
      e.in_flight <- e.in_flight + 1;
      Metrics.incr t.metrics (metric t "closed");
      Some e
  in
  Option.map (fun e -> run_entry t e (fun e -> f e.payload)) removed

let drain t =
  let idle =
    locked t @@ fun () ->
    let all = Hashtbl.fold (fun id e acc -> (id, e) :: acc) t.table [] in
    List.iter (fun (id, e) -> remove t id e) all;
    List.filter_map (fun (_, e) -> if e.in_flight = 0 then Some e else None) all
  in
  List.iter (fun e -> t.release e.payload) idle

let active t = locked t (fun () -> Hashtbl.length t.table)
