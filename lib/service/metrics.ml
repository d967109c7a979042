module Stats = Kfuse_util.Stats
module Plan_cache = Kfuse_cache.Plan_cache

type per_op = {
  mutable total : int;
  mutable errors : int;
  reservoir : Stats.reservoir;
}

type t = {
  lock : Mutex.t;
  by_op : (string, per_op) Hashtbl.t;
  counters : (string, int) Hashtbl.t;
  gauges : (string, int) Hashtbl.t;
}

let create () =
  {
    lock = Mutex.create ();
    by_op = Hashtbl.create 8;
    counters = Hashtbl.create 8;
    gauges = Hashtbl.create 8;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let get_op t op =
  match Hashtbl.find_opt t.by_op op with
  | Some p -> p
  | None ->
    (* 1024 samples bounds memory while keeping tail quantiles stable. *)
    let p = { total = 0; errors = 0; reservoir = Stats.reservoir 1024 } in
    Hashtbl.replace t.by_op op p;
    p

let observe t ~op ~ok ms =
  locked t @@ fun () ->
  let p = get_op t op in
  p.total <- p.total + 1;
  if not ok then p.errors <- p.errors + 1;
  Stats.add p.reservoir ms

let incr t name =
  locked t @@ fun () ->
  Hashtbl.replace t.counters name (1 + Option.value ~default:0 (Hashtbl.find_opt t.counters name))

let counter t name =
  locked t @@ fun () -> Option.value ~default:0 (Hashtbl.find_opt t.counters name)

(* Pre-seeding a counter at 0 keeps it visible in the exposition before
   its first event: an operator (or a CI grep) can tell "never shed"
   from "not instrumented". *)
let touch t name =
  locked t @@ fun () ->
  if not (Hashtbl.mem t.counters name) then Hashtbl.replace t.counters name 0

let adjust_gauge t name delta =
  locked t @@ fun () ->
  Hashtbl.replace t.gauges name (delta + Option.value ~default:0 (Hashtbl.find_opt t.gauges name))

let incr_gauge t name = adjust_gauge t name 1
let decr_gauge t name = adjust_gauge t name (-1)

let gauge t name =
  locked t @@ fun () -> Option.value ~default:0 (Hashtbl.find_opt t.gauges name)

let ops t =
  locked t @@ fun () ->
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.by_op [])

let latency t op =
  locked t @@ fun () -> Option.bind (Hashtbl.find_opt t.by_op op) (fun p -> Stats.quantiles p.reservoir)

let requests t op =
  locked t
  @@ fun () ->
  match Hashtbl.find_opt t.by_op op with Some p -> (p.total, p.errors) | None -> (0, 0)

let render ?cache t ~key_memo ~uptime_s =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  line "# kfused metrics (text exposition)";
  line "kfused_uptime_seconds %.3f" uptime_s;
  locked t (fun () ->
      let counters =
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counters [])
      in
      List.iter (fun (k, v) -> line "kfused_%s_total %d" k v) counters;
      let gauges =
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.gauges [])
      in
      List.iter (fun (k, v) -> line "kfused_%s %d" k v) gauges;
      let ops = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.by_op []) in
      List.iter
        (fun op ->
          let p = Hashtbl.find t.by_op op in
          line "kfused_requests_total{op=%S} %d" op p.total;
          line "kfused_request_errors_total{op=%S} %d" op p.errors;
          match Stats.quantiles p.reservoir with
          | None -> ()
          | Some q ->
            List.iter
              (fun (name, v) -> line "kfused_request_latency_ms{op=%S,quantile=%S} %.4f" op name v)
              [
                ("0.5", q.Stats.p50);
                ("0.9", q.Stats.p90);
                ("0.95", q.Stats.p95);
                ("0.99", q.Stats.p99);
              ];
            line "kfused_request_latency_ms_max{op=%S} %.4f" op q.Stats.q_max;
            line "kfused_request_latency_ms_mean{op=%S} %.4f" op q.Stats.q_mean)
        ops);
  Option.iter
    (fun c ->
      line "kfused_plan_cache_entries %d" c.Plan_cache.entries;
      line "kfused_plan_cache_capacity %d" c.Plan_cache.capacity;
      line "kfused_plan_cache_hits_total %d" c.Plan_cache.hits;
      line "kfused_plan_cache_disk_hits_total %d" c.Plan_cache.disk_hits;
      line "kfused_plan_cache_misses_total %d" c.Plan_cache.misses;
      line "kfused_plan_cache_iso_misses_total %d" c.Plan_cache.iso_misses;
      line "kfused_plan_cache_evictions_total %d" c.Plan_cache.evictions;
      line "kfused_plan_cache_stores_total %d" c.Plan_cache.stores;
      line "kfused_plan_cache_disk_errors_total %d" c.Plan_cache.disk_errors;
      line "kfused_plan_cache_hit_rate %.4f" (Plan_cache.hit_rate c))
    cache;
  let k = key_memo in
  line "kfused_key_memo_entries %d" k.Key_memo.entries;
  line "kfused_key_memo_capacity %d" k.Key_memo.capacity;
  line "kfused_key_memo_hits_total %d" k.Key_memo.hits;
  line "kfused_key_memo_misses_total %d" k.Key_memo.misses;
  Buffer.contents buf
