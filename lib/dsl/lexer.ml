type token =
  | Ident of string
  | Number of float
  | Lparen
  | Rparen
  | Lbrace
  | Rbrace
  | Lbracket
  | Rbracket
  | Comma
  | Equals
  | At
  | Colon
  | Plus
  | Minus
  | Star
  | Slash
  | Eof

type spanned = { token : token; pos : Ast.position }

exception Lex_error of { pos : Ast.position; msg : string }

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c
let is_ident s = s <> "" && is_ident_start s.[0] && String.for_all is_ident_char s

let tokenize src =
  let n = String.length src in
  let line = ref 1 and col = ref 1 in
  let i = ref 0 in
  let pos () = { Ast.line = !line; col = !col } in
  let advance () =
    if !i < n then begin
      if src.[!i] = '\n' then begin
        incr line;
        col := 1
      end
      else incr col;
      incr i
    end
  in
  let peek () = if !i < n then Some src.[!i] else None in
  let tokens = ref [] in
  let push tok p = tokens := { token = tok; pos = p } :: !tokens in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\r' | '\n') ->
      advance ();
      skip_ws ()
    | Some '#' ->
      let rec to_eol () =
        match peek () with
        | Some '\n' | None -> ()
        | Some _ ->
          advance ();
          to_eol ()
      in
      to_eol ();
      skip_ws ()
    | Some _ | None -> ()
  in
  let lex_number p =
    let start = !i in
    let consume_digits () =
      while (match peek () with Some c -> is_digit c | None -> false) do
        advance ()
      done
    in
    consume_digits ();
    (match peek () with
    | Some '.' ->
      advance ();
      consume_digits ()
    | _ -> ());
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with
      | Some ('+' | '-') -> advance ()
      | _ -> ());
      consume_digits ()
    | _ -> ());
    let text = String.sub src start (!i - start) in
    match float_of_string_opt text with
    | Some f -> push (Number f) p
    | None -> raise (Lex_error { pos = p; msg = Printf.sprintf "invalid number %S" text })
  in
  let lex_ident p =
    let start = !i in
    while (match peek () with Some c -> is_ident_char c | None -> false) do
      advance ()
    done;
    push (Ident (String.sub src start (!i - start))) p
  in
  let rec loop () =
    skip_ws ();
    let p = pos () in
    match peek () with
    | None -> push Eof p
    | Some c ->
      (match c with
      | '(' -> advance (); push Lparen p
      | ')' -> advance (); push Rparen p
      | '{' -> advance (); push Lbrace p
      | '}' -> advance (); push Rbrace p
      | '[' -> advance (); push Lbracket p
      | ']' -> advance (); push Rbracket p
      | ',' -> advance (); push Comma p
      | '=' -> advance (); push Equals p
      | '@' -> advance (); push At p
      | ':' -> advance (); push Colon p
      | '+' -> advance (); push Plus p
      | '-' -> advance (); push Minus p
      | '*' -> advance (); push Star p
      | '/' -> advance (); push Slash p
      | c when is_digit c -> lex_number p
      | c when is_ident_start c -> lex_ident p
      | c ->
        raise (Lex_error { pos = p; msg = Printf.sprintf "unexpected character %C" c }));
      if (match !tokens with { token = Eof; _ } :: _ -> false | _ -> true) then loop ()
  in
  loop ();
  List.rev !tokens

let token_to_string = function
  | Ident s -> Printf.sprintf "identifier %S" s
  | Number f -> Printf.sprintf "number %g" f
  | Lparen -> "'('"
  | Rparen -> "')'"
  | Lbrace -> "'{'"
  | Rbrace -> "'}'"
  | Lbracket -> "'['"
  | Rbracket -> "']'"
  | Comma -> "','"
  | Equals -> "'='"
  | At -> "'@'"
  | Colon -> "':'"
  | Plus -> "'+'"
  | Minus -> "'-'"
  | Star -> "'*'"
  | Slash -> "'/'"
  | Eof -> "end of input"
