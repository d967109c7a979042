type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

(* SplitMix64, used only to expand a seed into the four xoshiro words. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  { s0; s1; s2; s3 }

let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

let save t =
  let b = Bytes.create 32 in
  List.iteri (fun i w -> Bytes.set_int64_ne b (8 * i) w) [ t.s0; t.s1; t.s2; t.s3 ];
  b

let restore t b =
  if Bytes.length b <> 32 then invalid_arg "Rng.restore: expected 32 bytes";
  t.s0 <- Bytes.get_int64_ne b 0;
  t.s1 <- Bytes.get_int64_ne b 8;
  t.s2 <- Bytes.get_int64_ne b 16;
  t.s3 <- Bytes.get_int64_ne b 24

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let bits64 t =
  let open Int64 in
  let result = mul (rotl (mul t.s1 5L) 7) 9L in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t =
  let seed = Int64.to_int (bits64 t) in
  create seed

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.shift_right_logical (bits64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int n))

let float t x =
  (* 53 high bits -> [0,1) *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. x

(* [bits64] and [float] inlined over local refs: ocamlopt keeps
   non-escaping int64/float refs unboxed, while every write to a mutable
   int64 field of [t] allocates a box.  The step must stay identical to
   [bits64]; the test suite checks the stream and the final state
   against per-draw [float] calls. *)
let fill_float t ~lo ~span a =
  let open Int64 in
  let s0 = ref t.s0 and s1 = ref t.s1 and s2 = ref t.s2 and s3 = ref t.s3 in
  for i = 0 to Array.length a - 1 do
    let x = mul !s1 5L in
    let r = mul (logor (shift_left x 7) (shift_right_logical x 57)) 9L in
    let tmp = shift_left !s1 17 in
    s2 := logxor !s2 !s0;
    s3 := logxor !s3 !s1;
    s1 := logxor !s1 !s2;
    s0 := logxor !s0 !s3;
    s2 := logxor !s2 tmp;
    s3 := logor (shift_left !s3 45) (shift_right_logical !s3 19);
    Array.unsafe_set a i
      (lo +. (to_float (shift_right_logical r 11) /. 9007199254740992.0 *. span))
  done;
  t.s0 <- !s0;
  t.s1 <- !s1;
  t.s2 <- !s2;
  t.s3 <- !s3

let bool t = Int64.logand (bits64 t) 1L = 1L

let gaussian t =
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  let u1 = nonzero () in
  let u2 = float t 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)
