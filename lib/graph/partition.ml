module Iset = Kfuse_util.Iset

type t = Iset.t list

let normalize p =
  p
  |> List.filter (fun b -> not (Iset.is_empty b))
  |> List.sort (fun a b -> compare (Iset.min_elt a) (Iset.min_elt b))

let singletons g =
  Digraph.fold_vertices (fun v acc -> Iset.singleton v :: acc) g [] |> normalize

type invalid =
  | Empty_block
  | Overlap of int
  | Uncovered of int
  | Unknown_vertex of int

let invalid_to_string = function
  | Empty_block -> "a block is empty"
  | Overlap v -> Printf.sprintf "vertex %d appears in more than one block" v
  | Uncovered v -> Printf.sprintf "vertex %d is in no block" v
  | Unknown_vertex v -> Printf.sprintf "block mentions vertex %d, which is not in the graph" v

let validate g p =
  let vertices = Digraph.vertices g in
  let rec scan seen = function
    | [] -> (
      match Iset.min_elt_opt (Iset.diff vertices seen) with
      | Some v -> Error (Uncovered v)
      | None -> Ok ())
    | b :: rest ->
      if Iset.is_empty b then Error Empty_block
      else (
        match Iset.min_elt_opt (Iset.diff b vertices) with
        | Some v -> Error (Unknown_vertex v)
        | None -> (
          match Iset.min_elt_opt (Iset.inter b seen) with
          | Some v -> Error (Overlap v)
          | None -> scan (Iset.union seen b) rest))
  in
  scan Iset.empty p

let is_valid g p = match validate g p with Ok () -> true | Error _ -> false

let block_of p v =
  match List.find_opt (fun b -> Iset.mem v b) p with
  | Some b -> b
  | None -> raise Not_found

let block_weight weight g block =
  Digraph.fold_edges
    (fun u v acc ->
      if Iset.mem u block && Iset.mem v block then acc +. weight u v else acc)
    g 0.0

let objective weight g p =
  List.fold_left (fun acc b -> acc +. block_weight weight g b) 0.0 p

let crossing_weight weight g p =
  Digraph.fold_edges
    (fun u v acc ->
      let same =
        List.exists (fun b -> Iset.mem u b && Iset.mem v b) p
      in
      if same then acc else acc +. weight u v)
    g 0.0

let restrict p vs =
  normalize (List.map (fun b -> Iset.inter b vs) p)

let equal p q =
  let p = normalize p and q = normalize q in
  List.length p = List.length q && List.for_all2 Iset.equal p q

let pp ppf p =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") Iset.pp)
    (normalize p)
