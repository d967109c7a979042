(* Statistics, the printed result, the result records and [compare]. *)

module Jsonx = Kfuse_service.Jsonx

(* A metric as printed: name, value, unit, sample count. *)
type metric = { name : string; value : float; unit_ : string; n : int }

let metric name unit_ n value =
  (* An empty sample set reads 0 with n=0 rather than NaN, which JSON
     cannot carry. *)
  { name; unit_; n; value = (if Float.is_finite value then value else 0.) }

(* ---- statistics ---- *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let percentile p = function [] -> Float.nan | l -> Kfuse_util.Stats.percentile p (sorted l)
let median = percentile 50.
let mean = function
  | [] -> Float.nan
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
let geomean = function [] -> Float.nan | l -> Kfuse_util.Stats.geomean l

(* The three cut points of [statistics.quantiles(l, n=4)] (Python's
   default 'exclusive' method), so spreads agree with that tool.
   Needs two values. *)
let quartiles l =
  let a = sorted l in
  let n = Array.length a in
  let m = n + 1 in
  List.map
    (fun i ->
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.)
    [ 1; 2; 3 ]

(* Interquartile distance over the median. *)
let spread l =
  match quartiles l with
  | [ q1; q2; q3 ] when List.length l >= 2 && q2 <> 0. -> (q3 -. q1) /. Float.abs q2
  | _ -> Float.nan

(* [by_class samples] groups round trips by class, in first-seen order. *)
let by_class (samples : Loops.sample list) =
  List.fold_left
    (fun acc (s : Loops.sample) -> if List.mem s.Loops.cls acc then acc else s.Loops.cls :: acc)
    [] samples
  |> List.rev
  |> List.map (fun cls ->
         ( cls,
           List.filter_map
             (fun (s : Loops.sample) -> if s.Loops.cls = cls then Some s.Loops.ms else None)
             samples ))

(* ---- end-to-end metrics ---- *)

(* The daemon's CPU time and the requests it has served at a window
   boundary of a measured stretch. *)
type mark = { t : float; cpu_ms : float; reqs : int }

(* One fresh set-up: how long it took, and the daemon's resident set
   once warm. *)
type setup = { setup_s : float; warm_rss_mb : float }

(* Round trips of the stretch's samples completed inside window [(a, b)]. *)
let within (st : Loops.stretch) (a, b) =
  List.filter_map
    (fun (s : Loops.sample) ->
      if s.Loops.at >= a.t && s.Loops.at < b.t then Some s.Loops.ms else None)
    st.Loops.samples

(* The windows between consecutive marks, each merged with its
   successors until it holds at least ten samples (a short run has few
   requests per window); a short last window joins the one before. *)
let windows st marks =
  let rec go acc = function
    | a :: b :: rest ->
      let rec grow b rest =
        match rest with
        | b' :: rest' when List.length (within st (a, b)) < 10 -> grow b' rest'
        | _ -> (b, rest)
      in
      let b, rest = grow b rest in
      go ((a, b) :: acc) (b :: rest)
    | _ -> List.rev acc
  in
  match List.rev (go [] marks) with
  | (_, b) :: (a, _) :: earlier when List.length (within st (a, b)) < 10 ->
    List.rev ((a, b) :: earlier)
  | ws -> List.rev ws

(* On paper-exec a latency sample is the mean round trip of one full
   pass over the six apps: single requests fall into six clusters, one
   per app, and a percentile over them jumps between clusters. *)
let pass_means (st : Loops.stretch) =
  let passes = Hashtbl.create 64 in
  List.iter
    (fun (s : Loops.sample) ->
      Hashtbl.replace passes s.Loops.pass
        (s.Loops.ms :: Option.value ~default:[] (Hashtbl.find_opt passes s.Loops.pass)))
    st.Loops.samples;
  Hashtbl.fold
    (fun _ l acc -> if List.length l = Array.length Inputs.apps then mean l :: acc else acc)
    passes []

(* Geometric mean over the workload's request classes of each class's
   median round trip. *)
let class_geomean samples = geomean (List.map (fun (_, l) -> median l) (by_class samples))

(* Latency and throughput are taken per window of the stretch and
   reported as the median over windows, so a burst of interference from
   outside (a busy neighbour, CPU steal) moves a minority of windows and
   not the result.  paper-exec's windows are its passes. *)
let end_to_end ~workload ~(setups : setup list) ~(st : Loops.stretch) ~(marks : mark list) =
  let ws = windows st marks in
  let p50, p90, rate, n_lat =
    if workload = "paper-exec" then
      let pm = pass_means st in
      (median pm, percentile 90. pm, 1000. /. median pm, List.length pm)
    else
      let per =
        List.filter (fun (_, l) -> List.length l >= 10) (List.map (fun w -> (w, within st w)) ws)
      in
      ( median (List.map (fun (_, l) -> median l) per),
        median (List.map (fun (_, l) -> percentile 90. l) per),
        median (List.map (fun ((a, b), l) -> float_of_int (List.length l) /. (b.t -. a.t)) per),
        List.length st.Loops.samples )
  in
  let cpu =
    List.filter_map
      (fun (a, b) ->
        if b.reqs > a.reqs then
          Some ((b.cpu_ms -. a.cpu_ms) /. float_of_int (b.reqs - a.reqs))
        else None)
      ws
  in
  (* The tail percentile is printed but not gated: on a shared 2-core
     host its run-to-run spread exceeds any usable bound. *)
  Printf.printf "# req_p90_ms %.6f ms n=%d\n" p90 n_lat;
  [
    metric "setup_s" "s" (List.length setups) (median (List.map (fun s -> s.setup_s) setups));
    metric "req_p50_ms" "ms" n_lat p50;
    metric "req_per_s" "1/s" (List.length st.Loops.samples) rate;
    metric "exec_geomean_ms" "ms"
      (List.length (by_class st.Loops.samples))
      (class_geomean st.Loops.samples);
    metric "daemon_cpu_ms_per_req" "ms" st.Loops.requests (median cpu);
    (* The smallest reading: a buffer the GC has not reclaimed yet only
       adds to one. *)
    metric "daemon_rss_mb" "MiB" (List.length setups)
      (List.fold_left (fun m s -> Float.min m s.warm_rss_mb) Float.infinity setups);
  ]

(* ---- output ---- *)

let print_metric m = Printf.printf "%-28s %16.6f %-6s n=%d\n" m.name m.value m.unit_ m.n

let metrics_json ms =
  Jsonx.Obj
    (List.map
       (fun m -> (m.name, Jsonx.Obj [ ("value", Jsonx.Num m.value); ("unit", Jsonx.Str m.unit_) ]))
       ms)

(* The last line of standard output. *)
let result_line ~correct ~attempted ~failed ms =
  Jsonx.to_string
    (Jsonx.Obj
       [
         ("correct", Jsonx.Bool correct);
         ("attempted", Jsonx.Num (float_of_int attempted));
         ("failed", Jsonx.Num (float_of_int failed));
         ("metrics", metrics_json ms);
       ])

(* ---- envelope ---- *)

let read_file = Daemon.read_file

(* The checkout's commit, read from .git without running git (which
   would search the parent directories). *)
let git_rev () =
  let head = String.trim (read_file ".git/HEAD") in
  let prefix = "ref: " in
  if head = "" then "unknown"
  else if String.length head > 5 && String.sub head 0 5 = prefix then begin
    let r = String.sub head 5 (String.length head - 5) in
    match String.trim (read_file (Filename.concat ".git" r)) with
    | "" ->
      (* A packed ref: "<sha> <ref>" lines. *)
      List.fold_left
        (fun acc line ->
          match String.split_on_char ' ' line with
          | [ sha; name ] when name = r -> sha
          | _ -> acc)
        "unknown"
        (String.split_on_char '\n' (read_file ".git/packed-refs"))
    | sha -> sha
  end
  else head

let cc_version () =
  let cc = Option.value ~default:"cc" (Sys.getenv_opt "KFUSE_CC") in
  match Unix.open_process_args_in cc [| cc; "--version" |] with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
    let line = try input_line ic with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic);
    line

let envelope ~seed ~omp =
  Jsonx.Obj
    [
      ("git", Jsonx.Str (git_rev ()));
      ("nproc", Jsonx.Num (float_of_int (Domain.recommended_domain_count ())));
      ("cc", Jsonx.Str (cc_version ()));
      ("ocaml", Jsonx.Str Sys.ocaml_version);
      ("omp", Jsonx.Str omp);
      ("seed", Jsonx.Num (float_of_int seed));
    ]

(* One run as a JSON line of a results file, for [compare]. *)
let record ~envelope ~workload ~trace ~correct ~attempted ~failed ms =
  Jsonx.to_string
    (Jsonx.Obj
       [
         ("schema", Jsonx.Str "kfbench/v1");
         ("envelope", envelope);
         ("workload", Jsonx.Str workload);
         ("trace", Jsonx.Bool trace);
         ("correct", Jsonx.Bool correct);
         ("attempted", Jsonx.Num (float_of_int attempted));
         ("failed", Jsonx.Num (float_of_int failed));
         ( "metrics",
           Jsonx.Obj
             (List.map
                (fun m ->
                  ( m.name,
                    Jsonx.Obj
                      [
                        ("value", Jsonx.Num m.value);
                        ("unit", Jsonx.Str m.unit_);
                        ("samples", Jsonx.Num (float_of_int m.n));
                      ] ))
                ms) );
       ])

(* ---- compare ---- *)

let parse_lines path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> String.trim l <> "")
  |> List.filter_map (fun l ->
         match Jsonx.of_string l with
         | Ok v -> Some v
         | Error e ->
           Printf.eprintf "kfbench: %s: skipping a malformed line (%s)\n" path e;
           None)

(* Values of [metric] over the untraced runs of [workload]. *)
let values records ~workload ~metric =
  List.filter_map
    (fun r ->
      if Jsonx.mem_str "workload" r = Some workload && Jsonx.mem_bool "trace" r = Some false then
        Option.bind (Jsonx.member "metrics" r) (fun m ->
            Option.bind (Jsonx.member metric m) (Jsonx.mem_num "value"))
      else None)
    records

let envelope_values records key =
  List.sort_uniq compare
    (List.filter_map
       (fun r ->
         Option.bind (Jsonx.member "envelope" r) (fun e ->
             Option.map Jsonx.to_string (Jsonx.member key e)))
       records)

(* B against A for one metric: [worse] when B's median is worse than
   A's by more than [bound], [unresolved] when either side's spread is
   wider than [bound] (or unknown, with fewer than two runs). *)
let verdict ~bound ~lower xa xb =
  match (xa, xb) with
  | [], _ | _, [] -> ("missing", Float.nan)
  | _ ->
    let ma = median xa and mb = median xb in
    let change = (mb -. ma) /. Float.abs ma in
    let sa = spread xa and sb = spread xb in
    if Float.is_nan sa || Float.is_nan sb || sa > bound || sb > bound then ("unresolved", change)
    else if (lower && change > bound) || ((not lower) && change < -.bound) then ("worse", change)
    else ("ok", change)

(* [compare ~benchmark a b] prints, per workload and end-to-end metric,
   the verdict of results file B against results file A under the
   bounds of [benchmark], after the two files' envelopes.  Returns the
   number of regressions. *)
let compare ~benchmark a b =
  let bench =
    match Jsonx.of_string (read_file benchmark) with
    | Ok v -> v
    | Error e -> failwith (benchmark ^ ": " ^ e)
  in
  let list key = Option.value ~default:[] (Option.bind (Jsonx.member key bench) Jsonx.arr) in
  let str key v = Option.value ~default:"" (Jsonx.mem_str key v) in
  let ra = parse_lines a and rb = parse_lines b in
  List.iter
    (fun key ->
      let va = envelope_values ra key and vb = envelope_values rb key in
      Printf.printf "envelope %-6s A %s  B %s%s\n" key (String.concat "," va)
        (String.concat "," vb)
        (if key <> "git" && key <> "seed" && va <> vb then "  (differs)" else ""))
    [ "git"; "nproc"; "cc"; "ocaml"; "omp"; "seed" ];
  let worse = ref 0 in
  List.iter
    (fun w ->
      let workload = str "name" w in
      List.iter
        (fun m ->
          let name = str "name" m in
          let bound = Option.value ~default:0. (Jsonx.mem_num "bound" m) in
          let xa = values ra ~workload ~metric:name and xb = values rb ~workload ~metric:name in
          if xa <> [] || xb <> [] then begin
            let v, change = verdict ~bound ~lower:(str "better" m = "lower") xa xb in
            if v = "worse" then incr worse;
            Printf.printf "%-14s %-22s A n=%-2d B n=%-2d change %+7.2f%%  bound %5.1f%%  %s\n"
              workload name (List.length xa) (List.length xb) (change *. 100.) (bound *. 100.) v
          end)
        (list "end_to_end"))
    (list "workloads");
  !worse
