module Iset = Kfuse_util.Iset
module Imap = Kfuse_util.Imap

exception Cycle of int list

(* Kahn's algorithm with a sorted ready set for determinism.  If vertices
   remain when the ready set drains, a cycle exists; we then extract one
   cycle by walking predecessors inside the residual graph. *)
let sort g =
  let indeg =
    Digraph.fold_vertices (fun v acc -> Imap.add v (Digraph.in_degree g v) acc) g Imap.empty
  in
  let ready =
    Imap.fold (fun v d acc -> if d = 0 then Iset.add v acc else acc) indeg Iset.empty
  in
  let rec loop ready indeg acc n =
    match Iset.min_elt_opt ready with
    | Some v ->
      let ready = Iset.remove v ready in
      let ready, indeg =
        Iset.fold
          (fun w (ready, indeg) ->
            let d = Imap.find w indeg - 1 in
            let indeg = Imap.add w d indeg in
            if d = 0 then (Iset.add w ready, indeg) else (ready, indeg))
          (Digraph.succs g v) (ready, indeg)
      in
      loop ready indeg (v :: acc) (n + 1)
    | None ->
      if n = Digraph.num_vertices g then List.rev acc
      else begin
        (* Residual vertices all lie on or lead into a cycle: walk
           predecessors within the residual set until a vertex repeats. *)
        let residual =
          Imap.fold (fun v d acc -> if d > 0 then Iset.add v acc else acc) indeg Iset.empty
        in
        let start = Iset.min_elt residual in
        (* Walk predecessors until a vertex repeats; [path] is
           most-recent-first, so when the head [v0] repeats, the cycle is
           [v0] plus the prefix of the tail up to the next [v0]. *)
        let rec walk v seen path =
          if Iset.mem v seen then begin
            match path with
            | v0 :: rest ->
              let rec prefix = function
                | [] -> []
                | w :: tl -> if w = v0 then [] else w :: prefix tl
              in
              List.rev (v0 :: prefix rest)
            | [] -> assert false
          end
          else
            let p = Iset.min_elt (Iset.inter (Digraph.preds g v) residual) in
            walk p (Iset.add v seen) (p :: path)
        in
        raise (Cycle (walk start Iset.empty [ start ]))
      end
  in
  loop ready indeg [] 0

let is_dag g = match sort g with _ -> true | exception Cycle _ -> false

let closure next g v =
  let rec loop frontier seen =
    match frontier with
    | [] -> seen
    | u :: rest ->
      let fresh = Iset.diff (next g u) seen in
      loop (Iset.elements fresh @ rest) (Iset.union fresh seen)
  in
  loop [ v ] (Iset.singleton v)

let reachable g v = closure Digraph.succs g v
let co_reachable g v = closure Digraph.preds g v
let has_path g u v = Iset.mem v (reachable g u)

let sources g =
  Digraph.fold_vertices
    (fun v acc -> if Digraph.in_degree g v = 0 then Iset.add v acc else acc)
    g Iset.empty

let sinks g =
  Digraph.fold_vertices
    (fun v acc -> if Digraph.out_degree g v = 0 then Iset.add v acc else acc)
    g Iset.empty

let neighbors g v = Iset.union (Digraph.succs g v) (Digraph.preds g v)

let undirected_components g =
  let rec component frontier seen =
    match frontier with
    | [] -> seen
    | u :: rest ->
      let fresh = Iset.diff (neighbors g u) seen in
      component (Iset.elements fresh @ rest) (Iset.union fresh seen)
  in
  let rec loop remaining acc =
    match Iset.min_elt_opt remaining with
    | None -> List.rev acc
    | Some v ->
      let comp = component [ v ] (Iset.singleton v) in
      loop (Iset.diff remaining comp) (comp :: acc)
  in
  loop (Digraph.vertices g) []

(* A walk from the smallest vertex over [g]'s own adjacency, kept inside
   [vs]: no induced graph is built. *)
let is_weakly_connected g vs =
  let vs = Iset.filter (Digraph.mem_vertex g) vs in
  match Iset.min_elt_opt vs with
  | None -> true
  | Some v ->
    let rec walk frontier seen =
      match frontier with
      | [] -> seen
      | u :: rest ->
        let fresh = Iset.diff (Iset.inter (neighbors g u) vs) seen in
        walk (Iset.elements fresh @ rest) (Iset.union fresh seen)
    in
    Iset.equal (walk [ v ] (Iset.singleton v)) vs
