type entry = {
  name : string;
  description : string;
  pipeline : unit -> Kfuse_ir.Pipeline.t;
  small : width:int -> height:int -> Kfuse_ir.Pipeline.t;
}

let all =
  [
    {
      name = "harris";
      description = "Harris corner detector: 9 kernels, the paper's worked example";
      pipeline = (fun () -> Harris.pipeline ());
      small = (fun ~width ~height -> Harris.pipeline ~width ~height ());
    };
    {
      name = "sobel";
      description = "Sobel edge filter: two local derivatives + gradient magnitude";
      pipeline = (fun () -> Sobel.pipeline ());
      small = (fun ~width ~height -> Sobel.pipeline ~width ~height ());
    };
    {
      name = "unsharp";
      description = "Cubic unsharp masking: blur + three point kernels sharing the input";
      pipeline = (fun () -> Unsharp.pipeline ());
      small = (fun ~width ~height -> Unsharp.pipeline ~width ~height ());
    };
    {
      name = "shitomasi";
      description = "Shi-Tomasi good-feature extractor: Harris structure, min-eigenvalue response";
      pipeline = (fun () -> Shitomasi.pipeline ());
      small = (fun ~width ~height -> Shitomasi.pipeline ~width ~height ());
    };
    {
      name = "enhance";
      description = "WCE enhancement: geometric mean filter + gamma correction chain";
      pipeline = (fun () -> Enhance.pipeline ());
      small = (fun ~width ~height -> Enhance.pipeline ~width ~height ());
    };
    {
      name = "motion";
      description = "Motion detection: frame delta vs previous frame, Sobel + threshold (temporal)";
      pipeline = (fun () -> Motion.pipeline ());
      small = (fun ~width ~height -> Motion.pipeline ~width ~height ());
    };
    {
      name = "tharris";
      description = "Temporal Harris: 3-frame sliding-window average ahead of the Harris chain";
      pipeline = (fun () -> Tharris.pipeline ());
      small = (fun ~width ~height -> Tharris.pipeline ~width ~height ());
    };
    {
      name = "night";
      description = "Night filter: two compute-heavy a-trous kernels + scotopic tone mapping";
      pipeline = (fun () -> Night.pipeline ());
      small = (fun ~width ~height -> Night.pipeline ~width ~height ~channels:1 ());
    };
  ]

let find name = List.find_opt (fun e -> String.equal e.name name) all
let names = List.map (fun e -> e.name) all

let lookup name =
  match find name with
  | Some e -> Ok e
  | None ->
    Error
      (Kfuse_util.Diag.errorf Kfuse_util.Diag.Io_error "unknown application %S (try: %s)" name
         (String.concat ", " names))
