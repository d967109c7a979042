exception Fault of { point : string; hit : int }

type trigger = Nth of int | Every of int | Prob of float * int

type point_state = {
  trigger : trigger;
  rng : Rng.t option;  (* present iff trigger is Prob *)
  mutable count : int;
  mutable spent : bool;  (* a fired Nth trigger never fires again *)
}

(* Global registry.  [armed_any] lets [hit] bail with a single atomic
   load on the (overwhelmingly common) unarmed path; everything else is
   under [lock] because hits arrive from pool worker domains. *)
let lock = Mutex.create ()
let armed_any = Atomic.make false
let points : (string, point_state) Hashtbl.t = Hashtbl.create 8
let observed : (string, int) Hashtbl.t = Hashtbl.create 8

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let arm point trigger =
  locked (fun () ->
      let rng = match trigger with Prob (_, seed) -> Some (Rng.create seed) | _ -> None in
      Hashtbl.replace points point { trigger; rng; count = 0; spent = false };
      Hashtbl.replace observed point 0;
      Atomic.set armed_any true)

let clear () =
  locked (fun () ->
      Hashtbl.reset points;
      Hashtbl.reset observed;
      Atomic.set armed_any false)

let active () = Atomic.get armed_any

let hits point = locked (fun () -> Option.value ~default:0 (Hashtbl.find_opt observed point))

(* Shared trigger evaluation: count the hit and decide whether it
   fires.  [Some n] carries the 1-based hit count of a firing hit. *)
let eval_hit point =
  if Atomic.get armed_any then
    locked (fun () ->
        match Hashtbl.find_opt points point with
        | None -> None
        | Some st ->
          st.count <- st.count + 1;
          Hashtbl.replace observed point st.count;
          let fires =
            match st.trigger with
            | Nth n ->
              if st.spent then false
              else if st.count = n then begin
                st.spent <- true;
                true
              end
              else false
            | Every n -> n >= 1 && st.count mod n = 0
            | Prob (p, _) -> (
              match st.rng with
              | Some rng -> Rng.float rng 1.0 < p
              | None -> false)
          in
          if fires then Some st.count else None)
  else None

let hit point =
  match eval_hit point with
  | Some n -> raise (Fault { point; hit = n })
  | None -> ()

let fires point = eval_hit point <> None

let parse_clause clause =
  let clause = String.trim clause in
  if clause = "" then Error "empty clause"
  else
    match String.index_opt clause '@' with
    | Some i -> (
      let point = String.sub clause 0 i in
      let n = String.sub clause (i + 1) (String.length clause - i - 1) in
      match int_of_string_opt n with
      | Some n when n >= 1 -> Ok (point, Nth n)
      | _ -> Error (Printf.sprintf "bad hit index in %S" clause))
    | None -> (
      match String.index_opt clause '/' with
      | Some i -> (
        let point = String.sub clause 0 i in
        let n = String.sub clause (i + 1) (String.length clause - i - 1) in
        match int_of_string_opt n with
        | Some n when n >= 1 -> Ok (point, Every n)
        | _ -> Error (Printf.sprintf "bad period in %S" clause))
      | None -> (
        match String.index_opt clause '~' with
        | Some i -> (
          let point = String.sub clause 0 i in
          let rest = String.sub clause (i + 1) (String.length clause - i - 1) in
          match String.index_opt rest ':' with
          | None -> Error (Printf.sprintf "missing seed in %S (want point~P:SEED)" clause)
          | Some j -> (
            let p = String.sub rest 0 j in
            let seed = String.sub rest (j + 1) (String.length rest - j - 1) in
            match (float_of_string_opt p, int_of_string_opt seed) with
            | Some p, Some seed when p >= 0.0 && p <= 1.0 -> Ok (point, Prob (p, seed))
            | _ -> Error (Printf.sprintf "bad probability or seed in %S" clause)))
        | None -> Ok (clause, Nth 1)))

let parse_spec spec =
  let clauses =
    String.split_on_char ',' spec |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if clauses = [] then Error "empty fault spec"
  else
    List.fold_left
      (fun acc clause ->
        match (acc, parse_clause clause) with
        | (Error _ as e), _ -> e
        | _, (Error _ as e) -> e
        | Ok done_, Ok c -> Ok (c :: done_))
      (Ok []) clauses
    |> Result.map List.rev

let arm_spec spec =
  match parse_spec spec with
  | Error _ as e -> e
  | Ok clauses ->
    List.iter (fun (point, trigger) -> arm point trigger) clauses;
    Ok ()

let env_var = "KFUSE_FAULTS"

let arm_from_env () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> Ok ()
  | Some spec -> arm_spec spec

let with_spec spec f =
  (match arm_spec spec with
  | Ok () -> ()
  | Error msg -> invalid_arg (Printf.sprintf "Faults.with_spec: %s" msg));
  Fun.protect ~finally:clear f
