module Image = Kfuse_image.Image
module Border = Kfuse_image.Border

(* A batch of positions: lane [i < n] sits at [(xs.(i), ys.(i))] and was
   derived from lane [top.(i)] of the row being evaluated.  [Let] values
   are stored by [top], so a [Var] under a [Shift] or inside a compacted
   branch reads the value bound at its own output pixel. *)
type batch = { mutable n : int; xs : int array; ys : int array; top : int array }

let batch cap = { n = 0; xs = Array.make cap 0; ys = Array.make cap 0; top = Array.make cap 0 }

(* A compiled node.  [Vec run]: [run b out] writes the node's value at
   every lane of [b] to [out.(0 .. b.n - 1)].  [Scalar c]: a constant or
   parameter, [c] everywhere. *)
type code = Scalar of float | Vec of (batch -> float array -> unit)

type t = { root : batch -> float array -> unit; row : batch; out : float array }

(* Operators are dispatched once per node, when it is compiled: each
   [_loop] below instantiates its [@inline] generic body at a constant
   operator, so the loop is straight float code with no call, no match
   and no boxing per lane. *)
let[@inline] unop op v =
  match op with
  | Expr.Neg -> -.v
  | Expr.Abs -> Float.abs v
  | Expr.Sqrt -> Float.sqrt v
  | Expr.Exp -> Float.exp v
  | Expr.Log -> Float.log v
  | Expr.Sin -> Float.sin v
  | Expr.Cos -> Float.cos v
  | Expr.Floor -> Float.floor v

let[@inline] binop op (a : float) b =
  match op with
  | Expr.Add -> a +. b
  | Expr.Sub -> a -. b
  | Expr.Mul -> a *. b
  | Expr.Div -> a /. b
  | Expr.Min -> Float.min a b
  | Expr.Max -> Float.max a b
  | Expr.Pow -> Float.pow a b

let[@inline] holds cmp (a : float) b =
  match cmp with Expr.Lt -> a < b | Expr.Le -> a <= b | Expr.Eq -> Float.compare a b = 0

let[@inline] map_gen op out n =
  for i = 0 to n - 1 do
    Array.unsafe_set out i (unop op (Array.unsafe_get out i))
  done

let map_loop : Expr.unop -> float array -> int -> unit = function
  | Expr.Neg -> fun o n -> map_gen Expr.Neg o n
  | Expr.Abs -> fun o n -> map_gen Expr.Abs o n
  | Expr.Sqrt -> fun o n -> map_gen Expr.Sqrt o n
  | Expr.Exp -> fun o n -> map_gen Expr.Exp o n
  | Expr.Log -> fun o n -> map_gen Expr.Log o n
  | Expr.Sin -> fun o n -> map_gen Expr.Sin o n
  | Expr.Cos -> fun o n -> map_gen Expr.Cos o n
  | Expr.Floor -> fun o n -> map_gen Expr.Floor o n

(* [zip op dst a b n]: [dst.(i) <- a.(i) op b.(i)]; [dst] may be [a] or [b]. *)
let[@inline] zip_gen op dst a b n =
  for i = 0 to n - 1 do
    Array.unsafe_set dst i (binop op (Array.unsafe_get a i) (Array.unsafe_get b i))
  done

let zip_loop : Expr.binop -> float array -> float array -> float array -> int -> unit =
  function
  | Expr.Add -> fun d a b n -> zip_gen Expr.Add d a b n
  | Expr.Sub -> fun d a b n -> zip_gen Expr.Sub d a b n
  | Expr.Mul -> fun d a b n -> zip_gen Expr.Mul d a b n
  | Expr.Div -> fun d a b n -> zip_gen Expr.Div d a b n
  | Expr.Min -> fun d a b n -> zip_gen Expr.Min d a b n
  | Expr.Max -> fun d a b n -> zip_gen Expr.Max d a b n
  | Expr.Pow -> fun d a b n -> zip_gen Expr.Pow d a b n

let[@inline] fold_gen op acc a n =
  let acc = ref acc in
  for i = 0 to n - 1 do
    acc := binop op !acc (Array.unsafe_get a i)
  done;
  !acc

let fold : Expr.binop -> float -> float array -> int -> float = function
  | Expr.Add -> fun acc a n -> fold_gen Expr.Add acc a n
  | Expr.Sub -> fun acc a n -> fold_gen Expr.Sub acc a n
  | Expr.Mul -> fun acc a n -> fold_gen Expr.Mul acc a n
  | Expr.Div -> fun acc a n -> fold_gen Expr.Div acc a n
  | Expr.Min -> fun acc a n -> fold_gen Expr.Min acc a n
  | Expr.Max -> fun acc a n -> fold_gen Expr.Max acc a n
  | Expr.Pow -> fun acc a n -> fold_gen Expr.Pow acc a n

(* [split cmp a b yes no n] writes the lanes where [a.(i) cmp b.(i)]
   holds to [yes], the others to [no], and returns how many hold. *)
let[@inline] split_gen cmp a b yes no n =
  let k = ref 0 in
  for i = 0 to n - 1 do
    if holds cmp (Array.unsafe_get a i) (Array.unsafe_get b i) then begin
      Array.unsafe_set yes !k i;
      incr k
    end
    else Array.unsafe_set no (i - !k) i
  done;
  !k

let split_loop :
    Expr.cmp -> float array -> float array -> int array -> int array -> int -> int =
  function
  | Expr.Lt -> fun a b y o n -> split_gen Expr.Lt a b y o n
  | Expr.Le -> fun a b y o n -> split_gen Expr.Le a b y o n
  | Expr.Eq -> fun a b y o n -> split_gen Expr.Eq a b y o n

let fill c b out = Array.fill out 0 b.n c
let vec = function Scalar c -> fill c | Vec f -> f

(* Compaction: [sub] gets the lanes [idx.(0 .. k - 1)] of [b]. *)
let gather b idx k sub =
  for j = 0 to k - 1 do
    let i = Array.unsafe_get idx j in
    Array.unsafe_set sub.xs j (Array.unsafe_get b.xs i);
    Array.unsafe_set sub.ys j (Array.unsafe_get b.ys i);
    Array.unsafe_set sub.top j (Array.unsafe_get b.top i)
  done;
  sub.n <- k

let scatter src idx k out =
  for j = 0 to k - 1 do
    Array.unsafe_set out (Array.unsafe_get idx j) (Array.unsafe_get src j)
  done

(* A [Select] branch, or the body of a [Constant]/[Undefined] exchange,
   on the lanes [idx.(0 .. k - 1)] of [b]: evaluated on exactly those
   lanes, so a read the scalar interpreter would not make is not made
   here either. *)
let branch cap = function
  | Scalar c ->
    fun _ idx k out ->
      for j = 0 to k - 1 do
        Array.unsafe_set out (Array.unsafe_get idx j) c
      done
  | Vec f ->
    let sub = batch cap and tmp = Array.create_float cap in
    fun b idx k out ->
      if k = b.n then f b out
      else if k > 0 then begin
        gather b idx k sub;
        f sub tmp;
        scatter tmp idx k out
      end

let expr ~width ~height ~params ~lookup e =
  let cap = width in
  let inside x y = x >= 0 && x < width && y >= 0 && y < height in
  (* [(ox, oy)]: the summed offsets of the enclosing [Shift]s without
     exchange, added to every position read below them. *)
  let rec go ox oy env e =
    match e with
    | Expr.Const c -> Scalar c
    | Expr.Param p -> (
      match List.assoc_opt p params with
      | Some v -> Scalar v
      | None -> invalid_arg (Printf.sprintf "Compile: unbound parameter %S" p))
    | Expr.Var v -> (
      match List.assoc_opt v env with
      | Some buf ->
        Vec
          (fun b out ->
            for i = 0 to b.n - 1 do
              Array.unsafe_set out i (Array.unsafe_get buf (Array.unsafe_get b.top i))
            done)
      | None -> invalid_arg (Printf.sprintf "Compile: unbound variable %%%s" v))
    | Expr.Input { image; dx; dy; border } ->
      let img = lookup image in
      let data = Image.unsafe_data img and w = Image.width img and h = Image.height img in
      let ox = ox + dx and oy = oy + dy in
      Vec
        (fun b out ->
          for i = 0 to b.n - 1 do
            let x = Array.unsafe_get b.xs i + ox and y = Array.unsafe_get b.ys i + oy in
            if x >= 0 && x < w && y >= 0 && y < h then
              Array.unsafe_set out i (Array.unsafe_get data ((y * w) + x))
            else Array.unsafe_set out i (Image.get_bordered img border x y)
          done)
    | Expr.Let { var; value; body } ->
      let f = vec (go ox oy env value) and buf = Array.create_float cap in
      let body = vec (go ox oy ((var, buf) :: env) body) in
      Vec
        (fun b out ->
          f b out;
          for i = 0 to b.n - 1 do
            Array.unsafe_set buf (Array.unsafe_get b.top i) (Array.unsafe_get out i)
          done;
          body b out)
    | Expr.Unop (op, a) ->
      let f = vec (go ox oy env a) and map = map_loop op in
      Vec
        (fun b out ->
          f b out;
          map out b.n)
    | Expr.Binop (op, l, r) -> (
      let zip = zip_loop op in
      match (go ox oy env l, go ox oy env r) with
      | l, Scalar c ->
        let f = vec l and cs = Array.make cap c in
        Vec
          (fun b out ->
            f b out;
            zip out out cs b.n)
      | Scalar c, Vec g ->
        let cs = Array.make cap c in
        Vec
          (fun b out ->
            g b out;
            zip out cs out b.n)
      | Vec f, Vec g ->
        let tmp = Array.create_float cap in
        Vec
          (fun b out ->
            f b out;
            g b tmp;
            zip out out tmp b.n))
    | Expr.Select { cmp; lhs; rhs; if_true; if_false } ->
      let fl = vec (go ox oy env lhs) and fr = vec (go ox oy env rhs) in
      let rs = Array.create_float cap and split = split_loop cmp in
      let yes = Array.make cap 0 and no = Array.make cap 0 in
      let bt = branch cap (go ox oy env if_true) in
      let bf = branch cap (go ox oy env if_false) in
      Vec
        (fun b out ->
          fl b out;
          fr b rs;
          let k = split out rs yes no b.n in
          bt b yes k out;
          bf b no (b.n - k) out)
    | Expr.Shift { dx; dy; exchange = None; body } -> go (ox + dx) (oy + dy) env body
    | Expr.Shift { dx; dy; exchange = Some mode; body } -> (
      (* Index exchange (Section IV-B): re-resolve the shifted position
         against the iteration space; the body then reads from there. *)
      let ox = ox + dx and oy = oy + dy in
      let body = go 0 0 env body and sub = batch cap in
      match mode with
      | Border.Clamp | Border.Mirror | Border.Repeat ->
        (* Always resolves inside: a coordinate remap, no compaction. *)
        let f = vec body in
        Vec
          (fun b out ->
            for i = 0 to b.n - 1 do
              let x = Array.unsafe_get b.xs i + ox and y = Array.unsafe_get b.ys i + oy in
              (if inside x y then begin
                 Array.unsafe_set sub.xs i x;
                 Array.unsafe_set sub.ys i y
               end
               else
                 match Border.resolve mode ~width ~height x y with
                 | Border.Inside (x, y) ->
                   Array.unsafe_set sub.xs i x;
                   Array.unsafe_set sub.ys i y
                 | Border.Const_value _ | Border.Undef -> assert false);
              Array.unsafe_set sub.top i (Array.unsafe_get b.top i)
            done;
            sub.n <- b.n;
            f sub out)
      | Border.Constant _ | Border.Undefined ->
        (* Lanes shifted off the iteration space take the constant (or
           raise) without evaluating the body; the rest are compacted. *)
        let idx = Array.make cap 0 and body = branch cap body in
        Vec
          (fun b out ->
            let k = ref 0 in
            for i = 0 to b.n - 1 do
              let x = Array.unsafe_get b.xs i + ox and y = Array.unsafe_get b.ys i + oy in
              if inside x y then begin
                Array.unsafe_set sub.xs i x;
                Array.unsafe_set sub.ys i y;
                Array.unsafe_set sub.top i (Array.unsafe_get b.top i);
                Array.unsafe_set idx !k i;
                incr k
              end
              else
                match Border.resolve mode ~width ~height x y with
                | Border.Const_value c -> Array.unsafe_set out i c
                | Border.Undef -> invalid_arg "Compile: undefined border in index exchange"
                | Border.Inside _ -> assert false
            done;
            sub.n <- b.n;
            body sub idx !k out))
  in
  let root = vec (go 0 0 [] e) in
  let row = batch cap in
  for i = 0 to cap - 1 do
    row.xs.(i) <- i;
    row.top.(i) <- i
  done;
  row.n <- cap;
  { root; row; out = Array.create_float cap }

let row t y =
  Array.fill t.row.ys 0 t.row.n y;
  t.root t.row t.out;
  t.out
