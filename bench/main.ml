(* Benchmark harness entry point.

   Usage: main.exe [-j N] [experiment ...]
   Experiments: fig3 fig4 fig6 fig6-csv tab1 tab2 ablate eventsim cache micro
   With no experiment argument, everything but fig6-csv runs in paper order.

   -j N sets the domain-pool size used for the fusion search, the
   500-run measurement simulation, and the app x device x impl grid
   (default: Domain.recommended_domain_count; -j 1 is fully serial).
   Results are bit-identical for every N. *)

let experiments =
  [
    ("fig3", Exp_fig3.run);
    ("fig4", Exp_fig4.run);
    ("fig6", Exp_fig6.run);
    ("fig6-csv", Exp_fig6.run_csv);
    ("tab1", Exp_tables.tab1);
    ("tab2", Exp_tables.tab2);
    ("ablate", Exp_ablate.run);
    ("eventsim", Exp_eventsim.run);
    ("cache", Exp_cache.run);
    ("micro", Micro.run);
  ]

(* Experiments that read the measurement grid; with a parallel pool the
   grid is warmed up front so the cells fan out over the domains. *)
let grid_consumers = [ "fig6"; "fig6-csv"; "tab1"; "tab2"; "ablate" ]

let usage () =
  Printf.eprintf "usage: main.exe [-j N] [experiment ...]\navailable: %s\n"
    (String.concat " " (List.map fst experiments));
  exit 1

let parse_args argv =
  let jobs = ref (Kfuse_util.Pool.default_size ()) in
  let names = ref [] in
  let bad fmt = Printf.ksprintf (fun m -> Printf.eprintf "main.exe: %s\n" m; usage ()) fmt in
  let rec go = function
    | [] -> ()
    | "-j" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
        jobs := n;
        go rest
      | _ -> bad "-j expects a positive integer, got %S" n)
    | [ "-j" ] -> bad "-j expects a positive integer"
    | arg :: rest when String.length arg > 2 && String.sub arg 0 2 = "-j" -> (
      match int_of_string_opt (String.sub arg 2 (String.length arg - 2)) with
      | Some n when n >= 1 ->
        jobs := n;
        go rest
      | _ -> bad "bad job count in %S" arg)
    | name :: rest ->
      if List.mem_assoc name experiments then begin
        names := name :: !names;
        go rest
      end
      else bad "unknown experiment %S" name
  in
  go (List.tl (Array.to_list argv));
  (!jobs, List.rev !names)

let () =
  let jobs, requested = parse_args Sys.argv in
  let requested =
    match requested with
    | [] ->
      (* Everything except the CSV variant, which exists for piping. *)
      List.filter (fun n -> n <> "fig6-csv") (List.map fst experiments)
    | names -> names
  in
  Kfuse_util.Pool.with_pool jobs (fun pool ->
      Runner.set_pool pool;
      if
        Kfuse_util.Pool.size pool > 1
        && List.exists (fun n -> List.mem n grid_consumers) requested
      then Runner.precompute ();
      List.iter (fun name -> (List.assoc name experiments) ()) requested)
