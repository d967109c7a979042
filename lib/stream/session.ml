module Diag = Kfuse_util.Diag
module Image = Kfuse_image.Image
module Pipeline = Kfuse_ir.Pipeline
module Temporal = Kfuse_ir.Temporal
module Eval = Kfuse_ir.Eval

type t = {
  pipeline : Pipeline.t;
  analysis : Temporal.t;
  stream_input : string;
  params : (string * float) list;
  (* Past frames, newest first, capped at [analysis.depth].  The window
     holds pipeline INPUTS, not outputs: the compiled plan stays a pure
     per-frame function, so native and interpreter backends see exactly
     the same bindings and bit-exactness across backends (including the
     mid-stream quarantine fallback) needs no state reconciliation. *)
  mutable history : Image.t list;
  mutable frames : int;
  (* The frame buffers {!draw} fills: frame [n] goes to slot
     [n mod (depth + 1)].  The window holds at most the [depth] frames
     before it, which sit in the other [depth] slots, so a draw never
     overwrites a frame the window still binds.  A slot is allocated at
     its first draw. *)
  ring : Image.t option array;
}

let create ?(params = []) (pipeline : Pipeline.t) =
  let analysis = Temporal.analyze pipeline in
  match Temporal.stream_input analysis with
  | Error d -> Error d
  | Ok stream_input -> Ok
      {
        pipeline;
        analysis;
        stream_input;
        params;
        history = [];
        frames = 0;
        ring = Array.make (analysis.Temporal.depth + 1) None;
      }

let pipeline t = t.pipeline
let analysis t = t.analysis
let stream_input t = t.stream_input
let params t = t.params
let depth t = t.analysis.Temporal.depth
let frames t = t.frames

let check_frame t frame =
  let w = t.pipeline.Pipeline.width and h = t.pipeline.Pipeline.height in
  if Image.width frame <> w || Image.height frame <> h then
    invalid_arg
      (Printf.sprintf "Session: frame is %dx%d, stream %s is %dx%d"
         (Image.width frame) (Image.height frame) t.pipeline.Pipeline.name w h)

(* [lag] frames back, clamping a cold start to the oldest frame we have
   (the current frame itself when the history is empty): frame 0 of a
   motion stream sees a zero delta, not an arbitrary boundary value. *)
let lagged t ~frame lag =
  match List.nth_opt t.history (lag - 1) with
  | Some img -> img
  | None -> ( match List.rev t.history with oldest :: _ -> oldest | [] -> frame)

let bindings t frame =
  check_frame t frame;
  List.map
    (fun name ->
      if String.equal name t.stream_input then (name, frame)
      else
        match List.assoc_opt name t.analysis.Temporal.temporal with
        | Some lag -> (name, lagged t ~frame lag)
        | None ->
          (* unreachable: [analyze] classifies every input *)
          invalid_arg ("Session: unclassified input " ^ name))
    t.pipeline.Pipeline.inputs

let advance t frame =
  check_frame t frame;
  let d = depth t in
  if d > 0 then
    t.history <- List.filteri (fun i _ -> i < d) (frame :: t.history);
  t.frames <- t.frames + 1

let draw t ~seed =
  let slot = t.frames mod Array.length t.ring in
  let img =
    match t.ring.(slot) with
    | Some img -> img
    | None ->
      let width = t.pipeline.Pipeline.width and height = t.pipeline.Pipeline.height in
      let img = Image.unsafe_of_flat ~width ~height (Array.create_float (width * height)) in
      t.ring.(slot) <- Some img;
      img
  in
  Frames.draw ~seed ~index:t.frames img;
  img

let eval t frame =
  Eval.run_outputs ~params:t.params t.pipeline (Eval.env_of_list (bindings t frame))

let push t frame =
  let outs = eval t frame in
  advance t frame;
  outs
