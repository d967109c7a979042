module Iset = Kfuse_util.Iset
module Pipeline = Kfuse_ir.Pipeline
module Kernel = Kfuse_ir.Kernel
module Expr = Kfuse_ir.Expr
module Cost = Kfuse_ir.Cost

type verdict =
  | Inline of { saved : float; cost : float }
  | Keep_output
  | Keep_global
  | Keep_resource of { consumer : string; ratio : float }
  | Keep_unprofitable of { saved : float; cost : float }

let producer_exn (p : Pipeline.t) image =
  match Pipeline.producer p image with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Inline_fusion: no kernel produces %S" image)

(* Rewrite one consumer kernel: substitute accesses to [image] by the
   producer body (registers for multi-use point reads outside Shift
   frames, Shift with index exchange for windowed reads) — shared with
   the fusion transform. *)
let rewrite_consumer ~exchange ~image ~producer_body (k : Kernel.t) =
  let body =
    match k.Kernel.op with
    | Kernel.Map e -> e
    | Kernel.Reduce _ ->
      invalid_arg
        (Printf.sprintf "Inline_fusion: consumer %s is a reduction" k.Kernel.name)
  in
  (* Fresh register names: chained inlines can target the same consumer
     repeatedly, so disambiguate against existing Let binders. *)
  let fresh img =
    let rec pick n =
      let candidate = if n = 0 then "inl_" ^ img else Printf.sprintf "inl_%s_%d" img n in
      let rec bound e =
        match e with
        | Expr.Let { var; value; body } ->
          String.equal var candidate || bound value || bound body
        | Expr.Const _ | Expr.Param _ | Expr.Input _ | Expr.Var _ -> false
        | Expr.Unop (_, a) -> bound a
        | Expr.Binop (_, a, b) -> bound a || bound b
        | Expr.Select { lhs; rhs; if_true; if_false; _ } ->
          List.exists bound [ lhs; rhs; if_true; if_false ]
        | Expr.Shift { body; _ } -> bound body
      in
      if bound body || bound producer_body then pick (n + 1) else candidate
    in
    pick 0
  in
  let new_body =
    Substitute.inline_producers ~exchange ~fresh
      ~produced:(fun img -> if String.equal img image then Some producer_body else None)
      body
  in
  Kernel.map ~name:k.Kernel.name ~inputs:(Expr.images new_body) new_body

let inline_image ?(exchange = true) (p : Pipeline.t) image =
  let u = producer_exn p image in
  let producer = Pipeline.kernel p u in
  if List.mem image (Pipeline.outputs p) then
    invalid_arg (Printf.sprintf "Inline_fusion: %S is a pipeline output" image);
  let producer_body =
    match producer.Kernel.op with
    | Kernel.Map e -> e
    | Kernel.Reduce _ ->
      invalid_arg (Printf.sprintf "Inline_fusion: producer %s is a reduction" image)
  in
  let consumers = Pipeline.consumers p u in
  let kernels =
    Array.to_list p.Pipeline.kernels
    |> List.filter_map (fun (k : Kernel.t) ->
           if String.equal k.Kernel.name image then None
           else if Iset.mem (Pipeline.index_of_exn p k.Kernel.name) consumers then
             Some (rewrite_consumer ~exchange ~image ~producer_body k)
           else Some k)
  in
  Pipeline.with_kernels p kernels

let taps_on (k : Kernel.t) image =
  let body = match k.Kernel.op with Kernel.Map e -> e | Kernel.Reduce { arg; _ } -> arg in
  List.length (List.filter (fun (i, _, _) -> String.equal i image) (Expr.accesses body))

let judge (config : Config.t) (p : Pipeline.t) image =
  let u = producer_exn p image in
  let producer = Pipeline.kernel p u in
  if List.mem image (Pipeline.outputs p) then Keep_output
  else if Kernel.is_global producer then Keep_global
  else begin
    let consumers = Iset.elements (Pipeline.consumers p u) in
    if List.exists (fun c -> Kernel.is_global (Pipeline.kernel p c)) consumers then
      Keep_global
    else begin
      (* Resource check per rewritten consumer (Eq. 2 against itself). *)
      let resource_violation =
        List.find_map
          (fun c ->
            let k = Pipeline.kernel p c in
            let before = Cost.kernel_shared_bytes config.Config.block k in
            if before = 0 then None
            else begin
              let body =
                match producer.Kernel.op with Kernel.Map e -> e | Kernel.Reduce _ -> assert false
              in
              let k' = rewrite_consumer ~exchange:true ~image ~producer_body:body k in
              let after = Cost.kernel_shared_bytes config.Config.block k' in
              let ratio = float_of_int after /. float_of_int before in
              if ratio > config.Config.c_mshared then
                Some (Keep_resource { consumer = k.Kernel.name; ratio })
              else None
            end)
          consumers
      in
      match resource_violation with
      | Some v -> v
      | None ->
        let is = Config.is_of config p in
        let n = float_of_int (List.length consumers) in
        let saved = is *. config.Config.tg *. (1.0 +. n) in
        let cost_op =
          Cost.cost_op ~c_alu:config.Config.c_alu ~c_sfu:config.Config.c_sfu
            (Cost.kernel_op_counts producer)
        in
        let is_ks = is *. float_of_int (List.length producer.Kernel.inputs) in
        let cost =
          List.fold_left
            (fun acc c ->
              acc
              +. (cost_op *. is_ks *. float_of_int (taps_on (Pipeline.kernel p c) image)))
            0.0 consumers
        in
        if saved -. cost +. config.Config.gamma > 0.0 then Inline { saved; cost }
        else Keep_unprofitable { saved; cost }
    end
  end

let greedy config (p : Pipeline.t) =
  Config.validate config;
  let rec loop p applied =
    let candidates =
      Array.to_list p.Pipeline.kernels
      |> List.filter_map (fun (k : Kernel.t) ->
             match judge config p k.Kernel.name with
             | Inline { saved; cost } -> Some (k.Kernel.name, saved -. cost)
             | Keep_output | Keep_global | Keep_resource _ | Keep_unprofitable _ -> None)
    in
    match List.sort (fun (_, a) (_, b) -> Float.compare b a) candidates with
    | [] -> (p, List.rev applied)
    | (image, _) :: _ -> loop (inline_image p image) (image :: applied)
  in
  loop p []

let verdict_to_string = function
  | Inline { saved; cost } -> Printf.sprintf "inline (saved %.1f, cost %.1f)" saved cost
  | Keep_output -> "keep: pipeline output"
  | Keep_global -> "keep: reduction kernel involved"
  | Keep_resource { consumer; ratio } ->
    Printf.sprintf "keep: shared memory of %s would grow x%.2f" consumer ratio
  | Keep_unprofitable { saved; cost } ->
    Printf.sprintf "keep: unprofitable (saved %.1f < cost %.1f)" saved cost
