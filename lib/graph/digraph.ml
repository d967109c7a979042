module Iset = Kfuse_util.Iset
module Imap = Kfuse_util.Imap

(* Invariant: [succ] and [pred] have exactly the same key set (the vertex
   set), and [v in succ u] iff [u in pred v]. *)
type t = { succ : Iset.t Imap.t; pred : Iset.t Imap.t }

let empty = { succ = Imap.empty; pred = Imap.empty }

let mem_vertex g v = Imap.mem v g.succ

let add_vertex g v =
  if mem_vertex g v then g
  else { succ = Imap.add v Iset.empty g.succ; pred = Imap.add v Iset.empty g.pred }

let add_edge g u v =
  if u = v then invalid_arg "Digraph.add_edge: self loop";
  let g = add_vertex (add_vertex g u) v in
  {
    succ = Imap.add u (Iset.add v (Imap.find u g.succ)) g.succ;
    pred = Imap.add v (Iset.add u (Imap.find v g.pred)) g.pred;
  }

let remove_edge g u v =
  if not (mem_vertex g u && mem_vertex g v) then g
  else
    {
      succ = Imap.add u (Iset.remove v (Imap.find u g.succ)) g.succ;
      pred = Imap.add v (Iset.remove u (Imap.find v g.pred)) g.pred;
    }

let succs g v = Imap.find_or ~default:Iset.empty v g.succ
let preds g v = Imap.find_or ~default:Iset.empty v g.pred

let remove_vertex g v =
  if not (mem_vertex g v) then g
  else begin
    let g = Iset.fold (fun w acc -> remove_edge acc v w) (succs g v) g in
    let g = Iset.fold (fun w acc -> remove_edge acc w v) (preds g v) g in
    { succ = Imap.remove v g.succ; pred = Imap.remove v g.pred }
  end

let of_edges es = List.fold_left (fun g (u, v) -> add_edge g u v) empty es

let mem_edge g u v = Iset.mem v (succs g u)

let vertices g = Imap.fold (fun v _ acc -> Iset.add v acc) g.succ Iset.empty

let fold_vertices f g acc = Imap.fold (fun v _ acc -> f v acc) g.succ acc

let fold_edges f g acc =
  Imap.fold (fun u vs acc -> Iset.fold (fun v acc -> f u v acc) vs acc) g.succ acc

let edges g = fold_edges (fun u v acc -> (u, v) :: acc) g [] |> List.rev

let out_degree g v = Iset.cardinal (succs g v)
let in_degree g v = Iset.cardinal (preds g v)
let num_vertices g = Imap.cardinal g.succ
let num_edges g = fold_edges (fun _ _ n -> n + 1) g 0

(* Visits only the kept vertices' adjacency, not every edge of [g]:
   legality checks and block fusion take small blocks of large graphs. *)
let induced g vs =
  let keep = Iset.filter (mem_vertex g) vs in
  let restrict m =
    Iset.fold (fun v acc -> Imap.add v (Iset.inter (Imap.find v m) keep) acc) keep Imap.empty
  in
  { succ = restrict g.succ; pred = restrict g.pred }

let equal a b =
  Imap.equal Iset.equal a.succ b.succ

let pp ppf g =
  Format.fprintf ppf "@[<v>vertices: %a@,edges: %a@]" Iset.pp (vertices g)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
       (fun ppf (u, v) -> Format.fprintf ppf "%d->%d" u v))
    (edges g)
