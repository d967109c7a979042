(** Hand-written lexer for the pipeline DSL.

    Comments run from [#] to end of line.  Numbers are decimal with an
    optional fraction and exponent; identifiers are
    [\[a-zA-Z_\]\[a-zA-Z0-9_\]*].  Keywords ([pipeline], [size], [param],
    [reduce]) are recognized by the parser, not the lexer. *)

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

(** Raised on an unexpected character. *)
exception Lex_error of { pos : Ast.position; msg : string }

(** [tokenize src] is the token stream of [src], ending with [Eof].
    @raise Lex_error on invalid input. *)
val tokenize : string -> spanned list

val token_to_string : token -> string

(** [is_ident s] is true when [s] is one identifier. *)
val is_ident : string -> bool
