module Image = Kfuse_image.Image

(* The pixel loop (kfuse_frames_stubs.c): three rounds of a
   closed-form integer hash of the cell coordinates -- not a sequential
   RNG, so frames are identical however they are produced (client
   preview, server synthesis, fuzz replay) -- plus the separable blob
   [| cx; cy; rx; ry |], whose per-row and per-column terms it computes.
   It writes every element of [data], which may be uninitialised. *)
external fill : float array -> int -> float array -> int -> unit = "kfuse_frames_fill"
[@@noalloc]

let draw ~seed ~index img =
  let width = Image.width img and height = Image.height img in
  let fw = float_of_int width and fh = float_of_int height in
  let fi = float_of_int index in
  let phase = float_of_int (seed land 1023) *. 0.0061359 in
  (* A bright blob orbiting the frame center: consecutive frames differ
     by genuine motion, so the motion app has edges to find, while the
     per-pixel hash noise keeps every frame unique.  The Gaussian
     separates, exp(-(dx²+dy²)) = exp(-dx²)·exp(-dy²), so the stub takes
     one exp per row plus one per column, not one per pixel.  The
     server draws one frame per push, under the stream's session lock,
     before the kernel runs: the whole generator is on a push's
     latency, and it allocates nothing in the major heap. *)
  let cx = fw *. (0.5 +. (0.3 *. sin ((fi *. 0.35) +. phase))) in
  let cy = fh *. (0.5 +. (0.3 *. cos ((fi *. 0.23) +. phase))) in
  fill (Image.unsafe_data img) width [| cx; cy; 0.15 *. fw; 0.15 *. fh |] (seed + (index * 7919))

let synthetic ~seed ~width ~height ~index =
  let img = Image.unsafe_of_flat ~width ~height (Array.create_float (width * height)) in
  draw ~seed ~index img;
  img
