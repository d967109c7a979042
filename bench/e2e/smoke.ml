(* Smoke test of kfbench: every workload for about a second, traced, on
   small inputs (--smoke).  It checks that each run prints every metric
   BENCHMARK.json names, with its unit, that its last line carries
   exactly the per-layer metrics, and that no op failed.

     smoke.exe KFBENCH KFUSEC BENCHMARK.json *)

module Jsonx = Kfuse_service.Jsonx

let read_file path = In_channel.with_open_bin path In_channel.input_all

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      print_endline ("FAIL " ^ s))
    fmt

let field key v = Option.value ~default:[] (Option.bind (Jsonx.member key v) Jsonx.arr)
let str key v = Option.value ~default:"" (Jsonx.mem_str key v)

(* [run kfbench kfusec workload] is the standard output of one traced
   smoke run, split into lines. *)
let run kfbench kfusec workload =
  let ic =
    Unix.open_process_args_in kfbench
      [|
        kfbench; "--workload"; workload; "--seed"; "1"; "--seconds"; "1"; "--trace"; "1";
        "--smoke"; "--kfusec"; kfusec;
      |]
  in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "%s: kfbench did not exit 0" workload);
  List.filter (fun l -> l <> "") (String.split_on_char '\n' out)

let () =
  let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p in
  let kfbench, kfusec, benchmark =
    match Sys.argv with
    | [| _; a; b; c |] -> (absolute a, absolute b, c)
    | _ ->
      prerr_endline "usage: smoke.exe KFBENCH KFUSEC BENCHMARK.json";
      exit 2
  in
  let bench =
    match Jsonx.of_string (read_file benchmark) with Ok v -> v | Error e -> failwith e
  in
  let named key = List.map (fun m -> (str "name" m, str "unit" m)) (field key bench) in
  let end_to_end = named "end_to_end" and per_layer = named "per_layer" in
  List.iter
    (fun w ->
      let workload = str "name" w in
      let t0 = Unix.gettimeofday () in
      let lines = run kfbench kfusec workload in
      (* Printed metric lines read "<name> <value> <unit> n=<count>". *)
      let printed =
        List.filter_map
          (fun l ->
            match List.filter (( <> ) "") (String.split_on_char ' ' l) with
            | [ name; _; unit_; n ] when String.length n > 2 && String.sub n 0 2 = "n=" ->
              Some (name, unit_)
            | _ -> None)
          lines
      in
      List.iter
        (fun (name, unit_) ->
          if not (List.mem (name, unit_) printed) then
            fail "%s: %s [%s] not printed" workload name unit_)
        (end_to_end @ per_layer);
      match List.rev lines with
      | [] -> fail "%s: no output" workload
      | last :: _ -> (
        match Jsonx.of_string last with
        | Error e -> fail "%s: last line is not JSON (%s)" workload e
        | Ok r ->
          if Jsonx.mem_num "failed" r <> Some 0. then fail "%s: failed ops: %s" workload last;
          if Jsonx.mem_bool "correct" r <> Some true then fail "%s: incorrect output" workload;
          let keys =
            match Jsonx.member "metrics" r with
            | Some (Jsonx.Obj kv) -> List.map fst kv
            | _ -> []
          in
          if List.sort compare keys <> List.sort compare (List.map fst per_layer) then
            fail "%s: the result line does not carry exactly the per-layer metrics" workload;
          Printf.printf "ok   %-14s %d metrics, %.1f s\n" workload (List.length printed)
            (Unix.gettimeofday () -. t0)))
    (field "workloads" bench);
  if !failures > 0 then exit 1
