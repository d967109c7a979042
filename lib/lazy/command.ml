module Diag = Kfuse_util.Diag
module Pipeline = Kfuse_ir.Pipeline

type t =
  | Edit of Edits.edit
  | Add_input of string
  | Flush of { scratch : bool }
  | Plan
  | Show
  | Help
  | Quit

let help =
  String.concat "\n"
    [
      "  add <name> = <expr>          append a kernel (DSL expression syntax,";
      "                               e.g. conv(in, gauss3, mirror) or a*2.0+b)";
      "  del <name>                   delete an unconsumed kernel";
      "  retarget <kernel> <from> <to>  rewrite <kernel>'s reads of <from> to <to>";
      "  param <name> <value>         add or update a scalar parameter default";
      "  input <name>                 declare an external input image";
      "  flush [scratch]              (re)plan fusion; 'scratch' skips the memos";
      "  plan                         show the last flushed plan";
      "  show                         show the builder state";
      "  help                         this text";
      "  quit                         leave the repl";
    ]

let parse_error fmt = Printf.ksprintf (fun m -> Error (Diag.v Diag.Parse_error m)) fmt

(* [add <name> = <expr>] is elaborated by synthesizing a one-definition
   pipeline that declares every image the builder can currently read as
   a pipeline input (and every parameter as a param decl — values are
   irrelevant, only the names must resolve), then extracting its single
   kernel.  The expression therefore gets the full DSL grammar for free,
   and every name it mentions resolves against the builder's state.  The
   extracted kernel still goes through [Lazy_pipeline.add]'s trial
   build, so builder-level rules (duplicate names, reading a reduction
   output, ...) are enforced exactly as for programmatic edits. *)
let elaborate_kernel lp ~name ~expr =
  match Lazy_pipeline.images lp with
  | [] ->
    Error
      (Diag.errorf Diag.Elab_error
         "nothing to read yet: declare an input first (input <name>)")
  | images -> (
    let buf = Buffer.create 256 in
    Printf.bprintf buf "pipeline repl(%s) {\n" (String.concat ", " images);
    Printf.bprintf buf "  size %d %d\n" (Lazy_pipeline.width lp)
      (Lazy_pipeline.height lp);
    List.iter
      (fun (p, _) -> Printf.bprintf buf "  param %s = 1.0\n" p)
      (Lazy_pipeline.params lp);
    Printf.bprintf buf "  %s = %s\n}\n" name expr;
    match Kfuse_dsl.Elaborate.parse_pipeline_diag (Buffer.contents buf) with
    | Error d -> Error { d with Diag.message = "in add: " ^ d.Diag.message }
    | Ok p ->
      if Pipeline.num_kernels p <> 1 then
        parse_error "add expects exactly one kernel definition"
      else Ok (Pipeline.kernel p 0))

let words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

let strip_comment s =
  match String.index_opt s '#' with None -> s | Some i -> String.sub s 0 i

let control line =
  match words (strip_comment line) with
  | [ "flush" ] -> Some (Flush { scratch = false })
  | [ "flush"; "scratch" ] -> Some (Flush { scratch = true })
  | [ "plan" ] -> Some Plan
  | [ "show" ] -> Some Show
  | [ "help" ] -> Some Help
  | [ ("quit" | "exit") ] -> Some Quit
  | _ -> None

let parse_edit lp line =
  let line = String.trim (strip_comment line) in
  match words line with
  | [] -> parse_error "empty command (try: help)"
  | "add" :: _ -> (
    (* Split on the first '=': the name is everything before it, the
       expression everything after — the expression itself may contain
       further '='-free DSL syntax only, so first-split is unambiguous. *)
    match String.index_opt line '=' with
    | None -> parse_error "add needs '=': add <name> = <expr>"
    | Some i -> (
      let lhs = String.trim (String.sub line 3 (i - 3)) in
      let expr = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
      match (words lhs, expr) with
      | [ name ], expr when expr <> "" ->
        Result.map (fun k -> Edit (Edits.Append k)) (elaborate_kernel lp ~name ~expr)
      | _ -> parse_error "add needs one name and an expression: add <name> = <expr>"))
  | [ ("del" | "delete"); name ] -> Ok (Edit (Edits.Delete name))
  | [ "retarget"; kernel; from_; to_ ] ->
    Ok (Edit (Edits.Retarget { kernel; from_; to_ }))
  | [ "param"; name; value ] | [ "param"; name; "="; value ] -> (
    match float_of_string_opt value with
    | Some v -> Ok (Edit (Edits.Set_param (name, v)))
    | None -> parse_error "param value %S is not a number" value)
  | [ "input"; name ] -> Ok (Add_input name)
  | verb :: _ -> parse_error "unknown or malformed command %S (try: help)" verb

let parse lp line =
  match control line with Some c -> Ok c | None -> parse_edit lp line

let label = function
  | Edit _ -> "edit"
  | Add_input _ -> "input"
  | Flush _ -> "flush"
  | Plan -> "plan"
  | Show -> "show"
  | Help -> "help"
  | Quit -> "quit"

let apply lp = function
  | Edit e -> (
    match Edits.apply lp e with
    | Ok () -> Ok (Edits.to_string e)
    | Error _ as err -> err)
  | Add_input n -> (
    match Lazy_pipeline.add_input lp n with
    | Ok () -> Ok (Printf.sprintf "input %s" n)
    | Error _ as err -> err)
  | (Flush _ | Plan | Show | Help | Quit) as c ->
    Error
      (Diag.errorf Diag.Protocol_error
         "%S is not an edit (lazy_edit accepts add/del/retarget/param/input)"
         (label c))
