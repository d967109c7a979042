(** The plan key of a request, memoized on the request's bytes.

    A [fuse] request reaches the plan cache only after its pipeline has
    been loaded (a registry app, or DSL text parsed and elaborated),
    validated and fingerprinted ({!Planner}).
    All of that is a pure function of the request's plan-shaping fields:
    [app], [source], the extent override, [c_mshared], [gamma] and [tg]
    (bit-exact), [strategy], [optimize] and [inline].  This memo maps an
    MD5 digest of an injective, length-prefixed encoding of those fields
    to the key they produce, so a repeated request text skips parse,
    validate and fingerprint.

    Only successful keys are stored: a request that fails to load or
    validate is recomputed every time and so always gets its full
    diagnostic.  The memo is a bounded {!Kfuse_cache.Lru} of
    {!capacity} entries behind one mutex, which is never held while a
    key is computed.  Thread-safe. *)

module Diag := Kfuse_util.Diag
module Fingerprint := Kfuse_cache.Fingerprint

type t

(** The fixed bound, 4096 entries.  An entry is a 16-byte request
    digest plus a key of three 32-character digests: a full memo holds
    about 1.3 MB of heap. *)
val capacity : int

(** [create ()] is an empty memo of {!capacity} entries. *)
val create : unit -> t

(** [digest ?size f] is the memo's address for request [f] planned at
    extent [size]: equal exactly when every plan-shaping field is
    equal. *)
val digest : ?size:int * int -> Protocol.fuse_request -> string

(** [key t ?size f] is the plan key of [f] at extent [size] —
    {!Planner.plan_key} of {!Planner.pipeline} — from the memo, else
    computed and stored when it succeeds, outside the memo's lock.  It
    comes with [f]'s pipeline: the one just loaded on a miss, loaded
    when first forced on a hit. *)
val key :
  t ->
  ?size:int * int ->
  Protocol.fuse_request ->
  (Fingerprint.key * (Kfuse_ir.Pipeline.t, Diag.t) result Lazy.t, Diag.t) result

type stats = {
  hits : int;  (** lookups answered by the memo *)
  misses : int;  (** lookups that computed the key *)
  entries : int;
  capacity : int;
}

val stats : t -> stats

(** [stats_json s] is the ["key_memo"] object of a [stats] reply. *)
val stats_json : stats -> Jsonx.t
