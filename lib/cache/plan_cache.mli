(** The fusion plan cache: content-addressed memoization of
    {!Kfuse_fusion.Driver} reports.

    Entries are addressed by {!Fingerprint.plan_key}: the canonical
    structural hash names the slot, and the exact fingerprint guards
    replay — a cached report is only returned when the request is
    bit-for-bit indistinguishable from the run that produced it, so a
    hit is guaranteed to equal a fresh {!Kfuse_fusion.Driver.run}.  No
    report is ever translated from one naming to another.

    Two tiers: an in-memory LRU (per process; thread-safe — one mutex,
    never held while computing a plan or doing disk I/O) and an optional
    on-disk content-addressed store so plans survive restarts.

    A memory slot holds the reports of up to four namings of its
    structure, most recently used first, each found by its exact key.
    So a pipeline and its renamed copies are all served from one slot,
    and neither evicts the other.  A naming the slot does not hold — on
    first sight, or after four other namings of the structure pushed it
    out — is counted as an [iso_misses] and recomputed.  The LRU's
    [capacity] bounds slots (structures), so the memory tier holds at
    most [4 * capacity] plans; {!stats}'s [entries] counts plans.

    Disk entries are one file per structural key under [dir], written
    atomically (temp-file-plus-rename) and self-describing: a header
    binds the format version and the producing OCaml version, and a
    payload digest detects truncation/corruption.  An unreadable, stale,
    or corrupt entry is deleted and treated as a miss — the disk tier
    can only ever cost a recompute, never wrongness
    ({!Kfuse_util.Diag.Cache_corrupt} is surfaced in {!stats} as
    [disk_errors]).  Known limit: a disk file keeps only the naming
    stored last, so after a restart the other namings of a structure
    miss once each.  The disk tier is read only when the memory tier
    has no slot for the structure.

    The header's format number changes whenever a marshaled type does
    (it is [2] since {!Kfuse_ir.Pipeline.t} stores its DAG), so a store
    written by an older build is dropped entry by entry, never read back
    as the new layout. *)

type t

(** The disk format number in every entry's header.  It changes
    whenever a marshaled type changes shape. *)
val format_version : int

(** Where a served report came from, or why it was computed. *)
type outcome =
  | Hit_memory
  | Hit_disk
  | Miss  (** never seen *)
  | Miss_iso
      (** the structure's slot is in memory, but not under this naming
          (first sight of the naming, or pushed out of a full slot) —
          recomputed so the reply stays bit-identical to a fresh run *)

val outcome_to_string : outcome -> string

(** [create ?capacity ?dir ()] — [capacity] bounds the in-memory LRU's
    slots (default 256 structures, so at most 1024 plans); [dir], when given, enables the on-disk tier
    (created on first store).  @raise Invalid_argument if
    [capacity < 1]. *)
val create : ?capacity:int -> ?dir:string -> unit -> t

(** [default_dir ()] is [$XDG_CACHE_HOME/kfuse] or [~/.cache/kfuse]
    (falling back to a [kfuse] directory under the temp dir when neither
    variable is set). *)
val default_dir : unit -> string

val dir : t -> string option

(** [find t key] is the cached report for [key], promoting disk hits
    into the memory tier.  Updates counters. *)
val find : t -> Fingerprint.key -> (Kfuse_fusion.Driver.report * outcome) option

(** [store t key report] writes both tiers (disk tier only if enabled;
    disk failures are counted, not raised).  In memory, [key]'s naming
    becomes the first of its slot, and the least recently used naming
    past four drops out.  A degraded report is {e not}
    stored: degradation reflects a budget or an injected fault, not the
    pipeline's content, so caching it would replay a transient accident
    forever. *)
val store : t -> Fingerprint.key -> Kfuse_fusion.Driver.report -> unit

(** [find_or_compute t key compute] is the cached report for [key],
    else [compute ()], stored on success and returned with the miss's
    outcome ([Miss] or [Miss_iso]).  At most one computation per key
    runs at a time: a caller that misses while [key] is being computed
    waits for that computation and is then served what it stored
    ([Hit_memory]), so concurrent misses compute once.  A computation
    that stores nothing (an error, or a degraded report) leaves each
    waiter to compute its own.  [compute] runs outside the cache lock.
    The only find-compute-store sequence of the planner's front ends. *)
val find_or_compute :
  t ->
  Fingerprint.key ->
  (unit -> (Kfuse_fusion.Driver.report, Kfuse_util.Diag.t) result) ->
  (Kfuse_fusion.Driver.report * outcome, Kfuse_util.Diag.t) result

type stats = {
  hits : int;  (** memory-tier hits *)
  misses : int;  (** complete misses (neither tier had the entry) *)
  iso_misses : int;  (** known structure, naming not in its slot *)
  evictions : int;  (** whole slots evicted by the LRU *)
  entries : int;  (** plans held, over every slot's namings *)
  capacity : int;  (** the slot bound *)
  disk_hits : int;
  disk_misses : int;
  disk_errors : int;  (** corrupt/stale entries dropped (KF0701) *)
  stores : int;
}

val stats : t -> stats

(** [hit_rate s] is served-from-cache over total lookups, in [0, 1]
    ([0.] before any lookup). *)
val hit_rate : stats -> float

(** [clear t] empties the memory tier (the disk tier is left alone). *)
val clear : t -> unit
