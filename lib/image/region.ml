type zone = Interior | Halo | Exterior

let classify ~width ~height ~radius x y =
  if radius < 0 then invalid_arg "Region.classify: negative radius";
  if width <= 0 || height <= 0 then invalid_arg "Region.classify: empty extent";
  if x < 0 || x >= width || y < 0 || y >= height then Exterior
  else if
    x >= radius && x < width - radius && y >= radius && y < height - radius
  then Interior
  else Halo

let interior_width ~image_width ~mask_width =
  max 0 (image_width - ((mask_width / 2) * 2))

let fused_radius radii = List.fold_left ( + ) 0 radii

let interior_count ~width ~height ~radius =
  let w = max 0 (width - (2 * radius)) in
  let h = max 0 (height - (2 * radius)) in
  w * h

let halo_count ~width ~height ~radius =
  (width * height) - interior_count ~width ~height ~radius

let zone_equal a b =
  match (a, b) with
  | Interior, Interior | Halo, Halo | Exterior, Exterior -> true
  | (Interior | Halo | Exterior), _ -> false
