type t = { width : int; height : int; data : float array }

let check_extent ~width ~height =
  if width <= 0 || height <= 0 then invalid_arg "Image.create: nonpositive extent"

let create ~width ~height () =
  check_extent ~width ~height;
  { width; height; data = Array.make (width * height) 0.0 }

let width img = img.width
let height img = img.height

let in_bounds img x y = x >= 0 && x < img.width && y >= 0 && y < img.height

let get img x y =
  if not (in_bounds img x y) then invalid_arg "Image.get: out of bounds";
  img.data.((y * img.width) + x)

let set img x y v =
  if not (in_bounds img x y) then invalid_arg "Image.set: out of bounds";
  img.data.((y * img.width) + x) <- v

let get_bordered img mode x y =
  match Border.resolve mode ~width:img.width ~height:img.height x y with
  | Border.Inside (x', y') -> img.data.((y' * img.width) + x')
  | Border.Const_value c -> c
  | Border.Undef -> invalid_arg "Image.get_bordered: undefined border access"

let init ~width ~height f =
  check_extent ~width ~height;
  (* Every element is written below: no zero-fill first. *)
  let data = Array.create_float (width * height) in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      data.((y * width) + x) <- f x y
    done
  done;
  { width; height; data }

let unsafe_data img = img.data

let unsafe_of_flat ~width ~height data =
  if width <= 0 || height <= 0 then
    invalid_arg "Image.unsafe_of_flat: nonpositive extent";
  if Array.length data <> width * height then
    invalid_arg "Image.unsafe_of_flat: length does not match extent";
  { width; height; data }

let const ~width ~height v =
  check_extent ~width ~height;
  { width; height; data = Array.make (width * height) v }

let of_rows rows =
  match rows with
  | [] -> invalid_arg "Image.of_rows: empty"
  | first :: _ ->
    let width = List.length first in
    let height = List.length rows in
    if width = 0 then invalid_arg "Image.of_rows: empty row";
    if List.exists (fun r -> List.length r <> width) rows then
      invalid_arg "Image.of_rows: ragged rows";
    let img = create ~width ~height () in
    List.iteri (fun y row -> List.iteri (fun x v -> set img x y v) row) rows;
    img

let copy img = { img with data = Array.copy img.data }

let map f img = { img with data = Array.map f img.data }

let mapi f img =
  init ~width:img.width ~height:img.height (fun x y -> f x y (get img x y))

let map2 f a b =
  if a.width <> b.width || a.height <> b.height then
    invalid_arg "Image.map2: extent mismatch";
  { a with data = Array.map2 f a.data b.data }

let fold f acc img = Array.fold_left f acc img.data

let equal a b =
  a.width = b.width && a.height = b.height
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a.data b.data

let max_abs_diff a b =
  if a.width <> b.width || a.height <> b.height then
    invalid_arg "Image.max_abs_diff: extent mismatch";
  let worst = ref 0.0 in
  Array.iteri
    (fun i x ->
      let y = b.data.(i) in
      if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) then begin
        let d = if Float.is_nan x || Float.is_nan y then Float.infinity else Float.abs (x -. y) in
        if d > !worst then worst := d
      end)
    a.data;
  !worst

type verdict = { max_abs_diff : float; differing : (string * float) list }

let verdict ~reference outputs =
  let against others (name, img) =
    match List.assoc_opt name others with
    | Some other when equal other img -> None
    | Some other when other.width = img.width && other.height = img.height ->
      Some (name, max_abs_diff other img)
    | Some _ | None -> Some (name, Float.infinity)
  in
  let extra (name, _) =
    if List.mem_assoc name reference then None else Some (name, Float.infinity)
  in
  let differing = List.filter_map (against outputs) reference @ List.filter_map extra outputs in
  { max_abs_diff = List.fold_left (fun acc (_, d) -> Float.max acc d) 0.0 differing; differing }

let bit_exact v = v.differing = []

let equal_eps ~eps a b =
  a.width = b.width && a.height = b.height && max_abs_diff a b <= eps

let random rng ~width ~height ~lo ~hi =
  check_extent ~width ~height;
  (* fill_float writes every element: no zero-fill first. *)
  let data = Array.create_float (width * height) in
  Kfuse_util.Rng.fill_float rng ~lo ~span:(hi -. lo) data;
  { width; height; data }

let pp ppf img =
  Format.fprintf ppf "@[<v>";
  for y = 0 to img.height - 1 do
    for x = 0 to img.width - 1 do
      if x > 0 then Format.fprintf ppf " ";
      Format.fprintf ppf "%8.3f" (get img x y)
    done;
    if y < img.height - 1 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"
