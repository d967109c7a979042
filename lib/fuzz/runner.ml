module Pool = Kfuse_util.Pool
module Pipeline = Kfuse_ir.Pipeline
module Config = Kfuse_fusion.Config

type options = {
  cases : int;
  seed : int;
  shrink : bool;
  corpus : string option;
  max_kernels : int;
  strict_optimal : bool;
  jobs : int;
  max_failures : int;
  cache_dir : string option;
  native : bool;
  oracles : Oracle.name list option;
}

let default_options =
  {
    cases = 200;
    seed = 0;
    shrink = true;
    corpus = None;
    max_kernels = 10;
    strict_optimal = false;
    jobs = 1;
    max_failures = 10;
    cache_dir = None;
    native = false;
    oracles = None;
  }

type origin = Generated of int | Replayed of string

type failure_report = {
  origin : origin;
  oracle : Oracle.name;
  detail : string;
  pipeline : Pipeline.t;
  shrunk : Pipeline.t option;
  saved : string option;
}

type summary = {
  cases_run : int;
  corpus_replayed : int;
  corpus_errors : (string * string) list;
  failures : failure_report list;
  optimal : int;
  gaps : int;
  max_gap : float;
  beta_unchecked : int;
  feature_counts : (string * int) list;
}

(* [rm -rf path]: the fuzz run's own scratch cache, plans and native
   artifacts included. *)
let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let origin_label = function
  | Generated i -> Printf.sprintf "case %d" i
  | Replayed path -> Printf.sprintf "corpus %s" (Filename.basename path)

let run ?(log = fun _ -> ()) (o : options) =
  let config = Config.default in
  (* The cache-replay oracle gets a fresh scratch directory unless the
     caller names one: plans written by an older build under the same
     keys would show up as bogus replay mismatches. *)
  let cache_dir, scratch =
    match o.cache_dir with
    | Some d -> (d, false)
    | None -> (Filename.temp_dir "kfuse-fuzz-cache" "", true)
  in
  let pool = if o.jobs > 1 then Some (Pool.create o.jobs) else None in
  let bank =
    match o.oracles with
    | Some which -> which
    | None ->
      if o.native then Oracle.all @ [ Oracle.Native_exec; Oracle.Stream_exec ]
      else Oracle.all
  in
  let check ?(which = bank) p =
    Oracle.check ~which ?pool ~cache_dir ~strict_optimal:o.strict_optimal config p
  in
  let finally () =
    Option.iter Pool.shutdown pool;
    if scratch then remove_tree cache_dir
  in
  Fun.protect ~finally @@ fun () ->
  let failures = ref [] in
  let optimal = ref 0 and gaps = ref 0 and max_gap = ref 0.0 and unchecked = ref 0 in
  let feature_counts = Hashtbl.create 16 in
  let note_features p =
    List.iter
      (fun (flag, on) ->
        if on then
          Hashtbl.replace feature_counts flag
            (1 + Option.value ~default:0 (Hashtbl.find_opt feature_counts flag)))
      (Gen.feature_flags (Gen.features p))
  in
  let note_optimality = function
    | Oracle.Optimal -> incr optimal
    | Oracle.Gap g ->
      incr gaps;
      if g > !max_gap then max_gap := g
    | Oracle.Not_checked -> incr unchecked
  in
  let record ~origin ~(failure : Oracle.failure) p =
    let shrunk =
      if not o.shrink then None
      else begin
        let still_fails q =
          match (check ~which:[ failure.oracle ] q).Oracle.failure with
          | Some f -> f.Oracle.oracle = failure.oracle
          | None -> false
        in
        let m = Shrink.run ~still_fails p in
        if m == p then None else Some m
      end
    in
    let reproducer = Option.value ~default:p shrunk in
    let saved =
      Option.bind o.corpus (fun dir ->
          let seed, index =
            match origin with Generated i -> (Some o.seed, Some i) | Replayed _ -> (None, None)
          in
          match
            Corpus.save ~dir ?seed ?index
              ~oracle:(Oracle.name_to_string failure.oracle)
              ~detail:failure.detail reproducer
          with
          | Ok path -> Some path
          | Error _ -> None)
    in
    log
      (Printf.sprintf "FAIL %s: %s oracle: %s%s" (origin_label origin)
         (Oracle.name_to_string failure.oracle)
         failure.detail
         (match shrunk with
         | Some m -> Printf.sprintf " (shrunk %d -> %d kernels)" (Pipeline.num_kernels p) (Pipeline.num_kernels m)
         | None -> ""));
    failures :=
      { origin; oracle = failure.oracle; detail = failure.detail; pipeline = p; shrunk; saved }
      :: !failures
  in
  (* Phase 1: replay the corpus — previously-found bugs come first. *)
  let entries, corpus_errors =
    match o.corpus with None -> ([], []) | Some dir -> Corpus.load_dir dir
  in
  List.iter
    (fun (e : Corpus.entry) ->
      if List.length !failures < o.max_failures then begin
        let r = check e.Corpus.pipeline in
        match r.Oracle.failure with
        | Some failure -> record ~origin:(Replayed e.Corpus.path) ~failure e.Corpus.pipeline
        | None -> ()
      end)
    entries;
  (* Phase 2: fresh cases. *)
  let cases_run = ref 0 in
  (try
     for i = 0 to o.cases - 1 do
       if List.length !failures >= o.max_failures then raise Exit;
       incr cases_run;
       if i > 0 && i mod 500 = 0 then log (Printf.sprintf "... %d/%d cases" i o.cases);
       match Gen.case ~max_kernels:o.max_kernels ~costly:true ~seed:o.seed i with
       | exception e ->
         record ~origin:(Generated i)
           ~failure:
             {
               Oracle.oracle = Oracle.Validate_ok;
               detail = Printf.sprintf "generator raised: %s" (Printexc.to_string e);
             }
           (* A generator crash has no pipeline to attach; use the
              smallest well-formed stand-in. *)
           (Pipeline.create ~name:"gen_crash" ~width:7 ~height:7 ~inputs:[ "in0" ]
              [
                Kfuse_ir.Kernel.map ~name:"k0" ~inputs:[ "in0" ]
                  (Kfuse_ir.Expr.input "in0");
              ])
       | p ->
         note_features p;
         let r = check p in
         note_optimality r.Oracle.optimality;
         (match r.Oracle.failure with
         | Some failure -> record ~origin:(Generated i) ~failure p
         | None -> ())
     done
   with Exit -> ());
  {
    cases_run = !cases_run;
    corpus_replayed = List.length entries;
    corpus_errors;
    failures = List.rev !failures;
    optimal = !optimal;
    gaps = !gaps;
    max_gap = !max_gap;
    beta_unchecked = !unchecked;
    feature_counts =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) feature_counts []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
  }

let failed s = s.failures <> [] || s.corpus_errors <> []

let pp_summary ppf s =
  let open Format in
  fprintf ppf "fuzz: %d generated case%s, %d corpus replay%s@." s.cases_run
    (if s.cases_run = 1 then "" else "s")
    s.corpus_replayed
    (if s.corpus_replayed = 1 then "" else "s");
  List.iter
    (fun (path, reason) -> fprintf ppf "  corpus error: %s: %s@." path reason)
    s.corpus_errors;
  let checked = s.optimal + s.gaps in
  if checked > 0 then
    fprintf ppf "optimality (DAGs small enough to enumerate): %d/%d optimal, %d gap%s (max %.6g)@."
      s.optimal checked s.gaps
      (if s.gaps = 1 then "" else "s")
      s.max_gap;
  if s.feature_counts <> [] && s.cases_run > 0 then begin
    fprintf ppf "feature coverage over generated cases:@.";
    List.iter
      (fun (flag, n) ->
        fprintf ppf "  %-16s %5d  (%3.0f%%)@." flag n
          (100.0 *. float_of_int n /. float_of_int s.cases_run))
      s.feature_counts
  end;
  match s.failures with
  | [] -> fprintf ppf "no failures.@."
  | fs ->
    fprintf ppf "%d failure%s:@." (List.length fs) (if List.length fs = 1 then "" else "s");
    List.iter
      (fun f ->
        fprintf ppf "- %s: oracle %s@.  %s@." (origin_label f.origin)
          (Oracle.name_to_string f.oracle) f.detail;
        (match f.shrunk with
        | Some m ->
          fprintf ppf "  shrunk to %d kernel%s:@.%a@." (Pipeline.num_kernels m)
            (if Pipeline.num_kernels m = 1 then "" else "s")
            Pipeline.pp m
        | None -> ());
        match f.saved with
        | Some path -> fprintf ppf "  saved: %s@." path
        | None -> ())
      fs
