(** The benchmark applications of the paper's evaluation (Section V-B). *)

type entry = {
  name : string;
  description : string;
  pipeline : unit -> Kfuse_ir.Pipeline.t;
      (** builds the pipeline at the paper's evaluation size *)
  small : width:int -> height:int -> Kfuse_ir.Pipeline.t;
      (** builds the same pipeline at a custom size (for tests) *)
}

(** [all] lists the applications: the paper's six in table order
    (Harris, Sobel, Unsharp, ShiTomasi, Enhance, Night) plus the two
    temporal streaming apps (Motion, THarris) before Night. *)
val all : entry list

(** [find name] looks an application up by name. *)
val find : string -> entry option

(** [names] is the list of application names in table order. *)
val names : string list

(** [lookup name] is {!find} with a typed miss: the one "unknown
    application" diagnostic, listing {!names}. *)
val lookup : string -> (entry, Kfuse_util.Diag.t) result
