(** PGM (portable graymap) image I/O.

    Minimal support for the netpbm grayscale formats so examples and
    users can feed real images through pipelines: P5 (binary) and P2
    (ASCII), 8-bit or 16-bit.  Float pixels in [0, 1] map linearly onto
    [0, maxval]; out-of-range values are clamped on write. *)

(** [to_string ?maxval img] encodes [img] as a binary P5 graymap.
    [maxval] defaults to 255; values above 255 use 16-bit big-endian
    samples per the netpbm specification.
    @raise Invalid_argument if [maxval] is outside [1, 65535]. *)
val to_string : ?maxval:int -> Image.t -> string

(** [of_string data] decodes a P2 or P5 graymap into floats in [0, 1].
    Rejects malformed input: bad magic, truncated headers, nonpositive
    dimensions, out-of-range maxval, samples outside [0, maxval], and
    short raster data.
    @raise Invalid_argument on malformed input. *)
val of_string : string -> Image.t

(** [write ?maxval path img] writes [to_string img] to [path]. *)
val write : ?maxval:int -> string -> Image.t -> unit

(** [write_result ?maxval path img] is {!write} with I/O failures as
    {!Kfuse_util.Diag.Io_error} diagnostics. *)
val write_result :
  ?maxval:int -> string -> Image.t -> (unit, Kfuse_util.Diag.t) result

(** [read path] loads a PGM file.
    @raise Sys_error on I/O failure, [Invalid_argument] on bad data. *)
val read : string -> Image.t

(** [read_result path] is {!read} with a missing/unreadable file as an
    {!Kfuse_util.Diag.Io_error} and malformed data as a
    {!Kfuse_util.Diag.Pgm_format} diagnostic.  Never raises. *)
val read_result : string -> (Image.t, Kfuse_util.Diag.t) result
