type severity = Error | Warning | Note

type code =
  | Io_error
  | Parse_error
  | Elab_error
  | Pgm_format
  | Config_invalid
  | Cycle
  | Dangling_ref
  | Duplicate_name
  | Empty_iteration_space
  | Mask_too_large
  | Global_consumed
  | Unbound_param
  | Empty_pipeline
  | Invalid_partition
  | Strategy_failed
  | Budget_exceeded
  | Cache_corrupt
  | Protocol_error
  | Service_error
  | Overloaded
  | Request_timeout
  | Stream_backpressure
  | Stream_unknown
  | Shard_degraded
  | Shard_unavailable
  | Fault_injected
  | Toolchain_missing
  | Compile_failed
  | Exec_failed
  | Exec_timeout
  | Exec_crashed
  | Exec_limit
  | Internal_error

type context = { file : string option; line : int option; col : int option }

type t = { code : code; severity : severity; message : string; context : context }

exception Fatal of t

let code_id = function
  | Io_error -> "KF0101"
  | Parse_error -> "KF0201"
  | Elab_error -> "KF0202"
  | Pgm_format -> "KF0301"
  | Config_invalid -> "KF0401"
  | Cycle -> "KF0501"
  | Dangling_ref -> "KF0502"
  | Duplicate_name -> "KF0503"
  | Empty_iteration_space -> "KF0504"
  | Mask_too_large -> "KF0505"
  | Global_consumed -> "KF0506"
  | Unbound_param -> "KF0507"
  | Empty_pipeline -> "KF0508"
  | Invalid_partition -> "KF0601"
  | Strategy_failed -> "KF0602"
  | Budget_exceeded -> "KF0603"
  | Cache_corrupt -> "KF0701"
  | Protocol_error -> "KF0801"
  | Service_error -> "KF0802"
  | Overloaded -> "KF0803"
  | Request_timeout -> "KF0804"
  | Stream_backpressure -> "KF0805"
  | Stream_unknown -> "KF0806"
  | Shard_degraded -> "KF0807"
  | Shard_unavailable -> "KF0808"
  | Fault_injected -> "KF0901"
  | Toolchain_missing -> "KF0902"
  | Compile_failed -> "KF0903"
  | Exec_failed -> "KF0904"
  | Exec_timeout -> "KF0905"
  | Exec_crashed -> "KF0906"
  | Exec_limit -> "KF0907"
  | Internal_error -> "KF0999"

let all_codes =
  [
    Io_error; Parse_error; Elab_error; Pgm_format; Config_invalid; Cycle;
    Dangling_ref; Duplicate_name; Empty_iteration_space; Mask_too_large;
    Global_consumed; Unbound_param; Empty_pipeline; Invalid_partition;
    Strategy_failed; Budget_exceeded; Cache_corrupt; Protocol_error;
    Service_error; Overloaded; Request_timeout; Stream_backpressure;
    Stream_unknown; Shard_degraded; Shard_unavailable; Fault_injected;
    Toolchain_missing; Compile_failed; Exec_failed; Exec_timeout;
    Exec_crashed; Exec_limit; Internal_error;
  ]

let code_of_id id = List.find_opt (fun c -> code_id c = id) all_codes

let v ?(severity = Error) ?file ?line ?col code message =
  { code; severity; message; context = { file; line; col } }

let errorf ?file ?line ?col code fmt =
  Printf.ksprintf (fun message -> v ~severity:Error ?file ?line ?col code message) fmt

let warningf ?file ?line ?col code fmt =
  Printf.ksprintf (fun message -> v ~severity:Warning ?file ?line ?col code message) fmt

let is_error d = d.severity = Error

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Note -> "note"

let context_to_string c =
  match (c.file, c.line, c.col) with
  | None, None, _ -> ""
  | Some f, None, _ -> f ^ ": "
  | Some f, Some l, None -> Printf.sprintf "%s:%d: " f l
  | Some f, Some l, Some k -> Printf.sprintf "%s:%d:%d: " f l k
  | None, Some l, None -> Printf.sprintf "line %d: " l
  | None, Some l, Some k -> Printf.sprintf "line %d, column %d: " l k

let to_string d =
  Printf.sprintf "%s[%s]: %s%s"
    (severity_to_string d.severity)
    (code_id d.code)
    (context_to_string d.context)
    d.message

let pp ppf d = Format.pp_print_string ppf (to_string d)

let of_exn = function
  | Fatal d -> d
  | Sys_error msg -> v Io_error msg
  | Invalid_argument msg | Failure msg -> v Internal_error msg
  | Not_found -> v Internal_error "Not_found"
  | exn -> v Internal_error (Printexc.to_string exn)

let fail d = raise (Fatal d)

let catch f =
  match f () with
  | x -> Ok x
  | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
  | exception exn -> Error (of_exn exn)
