(** A minimal JSON codec: the [kfused] wire protocol's, and the one
    writer of the [BENCH_native.json] snapshot.

    Self-contained (the container ships no JSON library) and small on
    purpose: values, an encoder, a strict recursive-descent parser, and
    the handful of accessors the protocol needs.  Numbers are OCaml
    floats; integral values encode without a fractional part.  Strings
    are arbitrary bytes: control characters encode as [\uXXXX] escapes,
    and parsed [\uXXXX] escapes decode to UTF-8 (surrogate pairs
    included). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** [to_string v] is the compact (no-whitespace) JSON rendering. *)
val to_string : t -> string

(** [of_string s] parses exactly one JSON value spanning all of [s]
    (trailing whitespace allowed). *)
val of_string : string -> (t, string) result

(** {1 Accessors} — total, [None] on shape mismatch. *)

(** [member name v] is field [name] of an [Obj]. *)
val member : string -> t -> t option

val str : t -> string option
val num : t -> float option
val bool : t -> bool option
val arr : t -> t list option

(** [mem_str name v] / [mem_num name v] / [mem_bool name v] compose
    {!member} with the scalar accessors. *)
val mem_str : string -> t -> string option

val mem_num : string -> t -> float option
val mem_bool : string -> t -> bool option
