type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---- encoding ---- *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let number_to_string f =
  if Float.is_nan f || Float.abs f = infinity then
    (* JSON has no NaN/infinity.  These never appear in protocol values
       we produce; encode as null rather than emit invalid JSON. *)
    "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    (* Shortest round-trippable rendering. *)
    let s = Printf.sprintf "%.17g" f in
    let shorter = Printf.sprintf "%.15g" f in
    if float_of_string shorter = f then shorter else s

let rec encode buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> Buffer.add_string buf (number_to_string f)
  | Str s -> escape_string buf s
  | Arr items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        encode buf v)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_string buf k;
        Buffer.add_char buf ':';
        encode buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  encode buf v;
  Buffer.contents buf

(* ---- parsing ---- *)

exception Parse of string

type state = { src : string; mutable pos : int }

let fail st msg = raise (Parse (Printf.sprintf "%s at offset %d" msg st.pos))
let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let next st =
  match peek st with
  | Some c ->
    st.pos <- st.pos + 1;
    c
  | None -> fail st "unexpected end of input"

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    st.pos <- st.pos + 1;
    skip_ws st
  | _ -> ()

let expect st c =
  let got = next st in
  if got <> c then fail st (Printf.sprintf "expected %C, got %C" c got)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "invalid literal (expected %s)" word)

let utf8_add buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let hex4 st =
  let v = ref 0 in
  for _ = 1 to 4 do
    let c = next st in
    let d =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail st "invalid \\u escape"
    in
    v := (!v * 16) + d
  done;
  !v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 32 in
  let rec go () =
    match next st with
    | '"' -> Buffer.contents buf
    | '\\' ->
      (match next st with
      | '"' -> Buffer.add_char buf '"'
      | '\\' -> Buffer.add_char buf '\\'
      | '/' -> Buffer.add_char buf '/'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'n' -> Buffer.add_char buf '\n'
      | 'r' -> Buffer.add_char buf '\r'
      | 't' -> Buffer.add_char buf '\t'
      | 'u' ->
        let cp = hex4 st in
        if cp >= 0xD800 && cp <= 0xDBFF then begin
          (* High surrogate: require the low half. *)
          expect st '\\';
          expect st 'u';
          let lo = hex4 st in
          if lo < 0xDC00 || lo > 0xDFFF then fail st "unpaired surrogate";
          utf8_add buf (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
        end
        else if cp >= 0xDC00 && cp <= 0xDFFF then fail st "unpaired surrogate"
        else utf8_add buf cp
      | _ -> fail st "invalid escape");
      go ()
    | c when Char.code c < 0x20 -> fail st "unescaped control character"
    | c ->
      Buffer.add_char buf c;
      go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let consume_while p =
    while (match peek st with Some c -> p c | None -> false) do
      st.pos <- st.pos + 1
    done
  in
  if peek st = Some '-' then st.pos <- st.pos + 1;
  consume_while (function '0' .. '9' -> true | _ -> false);
  if peek st = Some '.' then begin
    st.pos <- st.pos + 1;
    consume_while (function '0' .. '9' -> true | _ -> false)
  end;
  (match peek st with
  | Some ('e' | 'E') ->
    st.pos <- st.pos + 1;
    (match peek st with
    | Some ('+' | '-') -> st.pos <- st.pos + 1
    | _ -> ());
    consume_while (function '0' .. '9' -> true | _ -> false)
  | _ -> ());
  let text = String.sub st.src start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> f
  | None -> fail st (Printf.sprintf "invalid number %S" text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some '}' then begin
      st.pos <- st.pos + 1;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match next st with
        | ',' -> fields ((k, v) :: acc)
        | '}' -> List.rev ((k, v) :: acc)
        | _ -> fail st "expected ',' or '}'"
      in
      Obj (fields [])
    end
  | Some '[' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some ']' then begin
      st.pos <- st.pos + 1;
      Arr []
    end
    else begin
      let rec items acc =
        let v = parse_value st in
        skip_ws st;
        match next st with
        | ',' -> items (v :: acc)
        | ']' -> List.rev (v :: acc)
        | _ -> fail st "expected ',' or ']'"
      in
      Arr (items [])
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number st)
  | Some c -> fail st (Printf.sprintf "unexpected character %C" c)

let of_string s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos <> String.length s then Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
    else Ok v
  | exception Parse msg -> Error msg

(* ---- accessors ---- *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let str = function Str s -> Some s | _ -> None
let num = function Num f -> Some f | _ -> None
let bool = function Bool b -> Some b | _ -> None
let arr = function Arr l -> Some l | _ -> None
let mem_str name v = Option.bind (member name v) str
let mem_num name v = Option.bind (member name v) num
let mem_bool name v = Option.bind (member name v) bool
