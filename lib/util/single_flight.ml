type 'k t = {
  lock : Mutex.t;
  inflight : ('k, Condition.t) Hashtbl.t;
  (* Computations finished, of any key: a caller that missed and finds
     this moved when it gets the lock looks again before it computes. *)
  finished : int Atomic.t;
}

let create () = { lock = Mutex.create (); inflight = Hashtbl.create 8; finished = Atomic.make 0 }

let run t key ~find compute =
  let seen = Atomic.get t.finished in
  match find () with
  | Some v -> v
  | None ->
    Mutex.lock t.lock;
    let rec wait waited =
      match Hashtbl.find_opt t.inflight key with
      | Some cond ->
        Condition.wait cond t.lock;
        wait true
      | None -> waited
    in
    (* Another caller may have published [key] since [find] missed: it
       then finished while we waited, or before we took the lock. *)
    let look_again = wait false || Atomic.get t.finished <> seen in
    let cond = Condition.create () in
    Hashtbl.replace t.inflight key cond;
    Mutex.unlock t.lock;
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock t.lock;
        Hashtbl.remove t.inflight key;
        Atomic.incr t.finished;
        Condition.broadcast cond;
        Mutex.unlock t.lock)
      (fun () ->
        match if look_again then find () else None with Some v -> v | None -> compute ())
