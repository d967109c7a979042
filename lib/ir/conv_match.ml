module Border = Kfuse_image.Border

type stencil = {
  image : string;
  border : Border.mode;
  taps : ((int * int) * float) list;
}

type factorization = {
  horizontal : (int * float) list;
  vertical : (int * float) list;
}

exception No_match

let extract e =
  (* Flatten the + tree into terms; recognize each term as coeff * tap. *)
  let rec terms acc e =
    match e with
    | Expr.Binop (Expr.Add, a, b) -> terms (terms acc a) b
    | _ -> e :: acc
  in
  let tap_of_term = function
    | Expr.Input { image; dx; dy; border } -> (image, border, (dx, dy), 1.0)
    | Expr.Binop (Expr.Mul, Expr.Const c, Expr.Input { image; dx; dy; border })
    | Expr.Binop (Expr.Mul, Expr.Input { image; dx; dy; border }, Expr.Const c) ->
      (image, border, (dx, dy), c)
    | _ -> raise No_match
  in
  try
    match List.rev_map tap_of_term (terms [] e) with
    | [] -> None
    | (image, border, off0, c0) :: rest ->
      let add taps off c =
        match List.assoc_opt off taps with
        | Some prev -> (off, prev +. c) :: List.remove_assoc off taps
        | None -> (off, c) :: taps
      in
      let taps =
        List.fold_left
          (fun taps (img, b, off, c) ->
            if String.equal img image && Border.equal b border then add taps off c
            else raise No_match)
          [ (off0, c0) ] rest
      in
      Some { image; border; taps = List.sort compare taps }
  with No_match -> None

let tap_count s = List.length (List.filter (fun (_, c) -> not (Float.equal c 0.0)) s.taps)

(* The relative error below which a tap counts as reconstructed. *)
let tolerance = 1e-9

let separate s =
  match s.taps with
  | [] -> None
  | _ ->
    let xs = List.map (fun ((dx, _), _) -> dx) s.taps in
    let ys = List.map (fun ((_, dy), _) -> dy) s.taps in
    let x0 = List.fold_left min (List.hd xs) xs and x1 = List.fold_left max (List.hd xs) xs in
    let y0 = List.fold_left min (List.hd ys) ys and y1 = List.fold_left max (List.hd ys) ys in
    let w dx dy = match List.assoc_opt (dx, dy) s.taps with Some c -> c | None -> 0.0 in
    let scale =
      List.fold_left (fun acc (_, c) -> Float.max acc (Float.abs c)) 0.0 s.taps
    in
    if scale = 0.0 then None
    else begin
      (* Pivot: the entry with the largest magnitude. *)
      let (px, py), pv =
        List.fold_left
          (fun ((_, bv) as best) (off, c) ->
            if Float.abs c > Float.abs bv then (off, c) else best)
          (List.hd s.taps) s.taps
      in
      (* Candidate factors: the pivot's column as the vertical factor and
         its (pivot-normalized) row as the horizontal one. *)
      let vertical_of dy = w px dy in
      let horizontal_of dx = w dx py /. pv in
      let rank1 = ref true in
      for dy = y0 to y1 do
        for dx = x0 to x1 do
          let predicted = vertical_of dy *. horizontal_of dx in
          if Float.abs (predicted -. w dx dy) > tolerance *. scale then rank1 := false
        done
      done;
      if not !rank1 then None
      else begin
        let nonzero lo hi f =
          List.filter_map
            (fun i -> if Float.abs (f i) > 0.0 then Some (i, f i) else None)
            (List.init (hi - lo + 1) (fun k -> lo + k))
        in
        Some
          {
            horizontal = nonzero x0 x1 horizontal_of;
            vertical = nonzero y0 y1 vertical_of;
          }
      end
    end
