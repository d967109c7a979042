(** Deterministic synthetic video frames.

    [synthetic ~seed ~width ~height ~index] is frame [index] of the
    synthetic stream [seed]: a bright blob orbiting the frame center
    (real inter-frame motion for the temporal apps to detect) plus
    closed-form per-pixel hash noise.  Pure function of its arguments —
    the client, the server and the fuzz oracle all reconstruct exactly
    the same pixels from [(seed, index)], which is what lets
    [stream_push] ship a seed instead of half a megabyte of pixels.

    The blob's centre is computed here; its per-row and per-column
    terms and the per-pixel loop are a C stub
    ([kfuse_frames_stubs.c]) that allocates nothing on the heap.  Its OCaml reference lives
    in [test/test_stream.ml], which checks the two bit for bit and pins
    the pixels with golden digests.  Raises [Invalid_argument] on a
    nonpositive extent. *)
val synthetic : seed:int -> width:int -> height:int -> index:int -> Kfuse_image.Image.t

(** [draw ~seed ~index img] overwrites every pixel of [img] with frame
    [index] of stream [seed] at [img]'s extent: [synthetic] is a fresh
    image and a [draw] into it.  A stream session draws each frame into
    a buffer of its own ring ({!Session.draw}), so a push allocates no
    frame. *)
val draw : seed:int -> index:int -> Kfuse_image.Image.t -> unit
