(* Batch-parallel domain pool.

   One mutex guards everything: the current batch, its self-scheduling
   index counter, and the live-task count.  Workers block on [work]
   between batches; the submitter blocks on [finished] until the batch
   drains.  Tasks write results into caller-owned slots indexed by task
   id, which is what makes every operation deterministic: scheduling
   decides only *who* computes a slot, never *what* ends up in it. *)

type batch = {
  body : int -> unit;
  total : int;
  chunk : int;
  mutable next : int;  (* next index to hand out *)
  mutable live : int;  (* chunks handed out but not yet finished *)
  mutable failed : (int * exn * Printexc.raw_backtrace) option;
      (* lowest-index failure so far *)
}

type state = {
  m : Mutex.t;
  work : Condition.t;  (* workers: new batch or shutdown *)
  finished : Condition.t;  (* submitter: batch drained *)
  mutable batch : batch option;
  mutable stop : bool;
  mutable workers : unit Domain.t array;
  mutable unspawned : int;  (* workers not spawned yet *)
}

type t = Serial | Pool of { n : int; st : state }

let serial = Serial
let default_size () = Domain.recommended_domain_count ()
let size = function Serial -> 1 | Pool { n; _ } -> n

(* Worker domains spawned but not yet joined, across all pools.  Tests
   use this to prove no domain outlives its [with_pool] bracket, even
   when a spawn fails halfway or a task raises. *)
let live = Atomic.make 0
let live_domains () = Atomic.get live

let record_failure b i exn bt =
  match b.failed with
  | Some (j, _, _) when j <= i -> ()
  | _ -> b.failed <- Some (i, exn, bt)

(* Take chunks from [b] until its counter is exhausted.  Called (and
   returns) with [st.m] held. *)
let drain st b =
  while b.next < b.total do
    let lo = b.next in
    let hi = min (lo + b.chunk) b.total in
    b.next <- hi;
    b.live <- b.live + 1;
    Mutex.unlock st.m;
    let failure =
      try
        for i = lo to hi - 1 do
          Faults.hit "pool.task";
          b.body i
        done;
        None
      with exn -> Some (exn, Printexc.get_raw_backtrace ())
    in
    Mutex.lock st.m;
    (match failure with
    | None -> ()
    | Some (exn, bt) -> record_failure b lo exn bt);
    b.live <- b.live - 1;
    if b.next >= b.total && b.live = 0 then Condition.broadcast st.finished
  done

let worker st =
  Mutex.lock st.m;
  let rec loop () =
    if st.stop then Mutex.unlock st.m
    else
      match st.batch with
      | Some b when b.next < b.total ->
        drain st b;
        loop ()
      | Some _ | None ->
        Condition.wait st.work st.m;
        loop ()
  in
  loop ()

let join_all st workers =
  Mutex.lock st.m;
  st.stop <- true;
  Condition.broadcast st.work;
  Mutex.unlock st.m;
  List.iter
    (fun d ->
      Domain.join d;
      Atomic.decr live)
    workers

(* Spawn up to [k] workers of [st] one at a time, so that a failure
   partway (the runtime's domain limit, or an injected fault) leaves the
   domains already running in hand instead of orphaning them.  Returns
   them in spawn order. *)
let spawn_workers st k =
  let spawned = ref [] in
  (try
     for _ = 1 to k do
       Faults.hit "pool.spawn";
       let d = Domain.spawn (fun () -> worker st) in
       Atomic.incr live;
       spawned := d :: !spawned
     done
   with _ -> ());
  List.rev !spawned

let create n =
  if n < 1 then invalid_arg "Pool.create: size must be >= 1";
  if n = 1 then Serial
  else
    Pool
      {
        n;
        st =
          {
            m = Mutex.create ();
            work = Condition.create ();
            finished = Condition.create ();
            batch = None;
            stop = false;
            workers = [||];
            unspawned = n - 1;
          };
      }

let shutdown = function
  | Serial -> ()
  | Pool { st; _ } ->
    Mutex.lock st.m;
    let workers = Array.to_list st.workers in
    st.workers <- [||];
    st.unspawned <- 0;
    Mutex.unlock st.m;
    join_all st workers

let with_pool n f =
  let t = create n in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let run_serial ~n body =
  for i = 0 to n - 1 do
    Faults.hit "pool.task";
    body i
  done

let run t ?(chunk = 1) ~n body =
  if chunk < 1 then invalid_arg "Pool.run: chunk must be >= 1";
  if n > 0 then
    match t with
    | Serial -> run_serial ~n body
    | Pool _ when n <= chunk ->
      (* One chunk has nothing to share: waking a worker would only move
         the task to another core and make the caller wait for it. *)
      run_serial ~n body
    | Pool { st; _ } ->
      Mutex.lock st.m;
      if st.stop || st.batch <> None then begin
        (* Shut down, or already inside a parallel region (a task of the
           current batch re-entered the pool): degrade to serial rather
           than deadlock. *)
        Mutex.unlock st.m;
        run_serial ~n body
      end
      else begin
        if st.unspawned > 0 then begin
          (* The pool's first batch with work to share.  A failed spawn
             leaves fewer workers, not a failed batch: the submitter
             drains whatever they do not take. *)
          st.workers <- Array.of_list (spawn_workers st st.unspawned);
          st.unspawned <- 0
        end;
        let b = { body; total = n; chunk; next = 0; live = 0; failed = None } in
        st.batch <- Some b;
        Condition.broadcast st.work;
        drain st b;
        while b.live > 0 do
          Condition.wait st.finished st.m
        done;
        st.batch <- None;
        Mutex.unlock st.m;
        match b.failed with
        | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt
        | None -> ()
      end

let init t n f =
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    run t ~n (fun i -> out.(i) <- Some (f i));
    Array.map (function Some v -> v | None -> assert false) out
  end

let map_array t f a = init t (Array.length a) (fun i -> f a.(i))
let map_list t f l = Array.to_list (map_array t f (Array.of_list l))
