type summary = {
  n : int;
  min : float;
  p25 : float;
  median : float;
  p75 : float;
  max : float;
  mean : float;
}

let percentile p sorted =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let mean xs =
  if Array.length xs = 0 then invalid_arg "Stats.mean: empty array";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let summarize samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.summarize: empty array";
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  {
    n;
    min = sorted.(0);
    p25 = percentile 25.0 sorted;
    median = percentile 50.0 sorted;
    p75 = percentile 75.0 sorted;
    max = sorted.(n - 1);
    mean = mean samples;
  }

let geomean xs =
  match xs with
  | [] -> invalid_arg "Stats.geomean: empty list"
  | _ ->
    let sum_logs =
      List.fold_left
        (fun acc x ->
          if x <= 0.0 then invalid_arg "Stats.geomean: nonpositive element";
          acc +. log x)
        0.0 xs
    in
    exp (sum_logs /. float_of_int (List.length xs))

(* ---- Reservoir sampling (algorithm R) ---- *)

type reservoir = {
  capacity : int;
  sample : float array;  (* first [filled] slots are live *)
  mutable filled : int;
  mutable seen : int;
  mutable sum : float;
  mutable rmin : float;
  mutable rmax : float;
  rng : Random.State.t;
}

let reservoir capacity =
  if capacity < 1 then invalid_arg "Stats.reservoir: capacity must be >= 1";
  {
    capacity;
    sample = Array.make capacity 0.0;
    filled = 0;
    seen = 0;
    sum = 0.0;
    rmin = infinity;
    rmax = neg_infinity;
    rng = Random.State.make [| 0x5157; capacity |];
  }

let add r x =
  r.seen <- r.seen + 1;
  r.sum <- r.sum +. x;
  if x < r.rmin then r.rmin <- x;
  if x > r.rmax then r.rmax <- x;
  if r.filled < r.capacity then begin
    r.sample.(r.filled) <- x;
    r.filled <- r.filled + 1
  end
  else begin
    (* Replace a random slot with probability capacity/seen: every value
       observed so far is in the sample with equal probability. *)
    let j = Random.State.int r.rng r.seen in
    if j < r.capacity then r.sample.(j) <- x
  end

let count r = r.seen

type quantiles = {
  samples : int;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
  q_min : float;
  q_max : float;
  q_mean : float;
}

let quantiles r =
  if r.filled = 0 then None
  else begin
    let sorted = Array.sub r.sample 0 r.filled in
    Array.sort Float.compare sorted;
    Some
      {
        samples = r.seen;
        p50 = percentile 50.0 sorted;
        p90 = percentile 90.0 sorted;
        p95 = percentile 95.0 sorted;
        p99 = percentile 99.0 sorted;
        q_min = r.rmin;
        q_max = r.rmax;
        q_mean = r.sum /. float_of_int r.seen;
      }
  end

let pp_summary ppf s =
  Format.fprintf ppf "n=%d min=%.4f p25=%.4f med=%.4f p75=%.4f max=%.4f" s.n
    s.min s.p25 s.median s.p75 s.max
