(** Interior / halo / exterior region analysis (Section IV-B).

    For a local operator of radius [r] over an image of extent
    [width x height]:
    - the {e interior} is the set of pixels whose full window lies inside
      the image — no border handling needed;
    - the {e halo} is the in-image band of width [r] along the borders,
      where windows reach outside — border handling (or, under fusion,
      index exchange) is required;
    - the {e exterior} is everything outside the image, where padding is
      conceptually applied.

    The interior width of an unfused kernel with mask width [lk] is
    [li - floor(lk/2) * 2] (paper, Section IV-B).  For a fused
    local-to-local kernel the effective radius is the {e sum} of the
    producer and consumer radii, consistent with the mask-growth formula
    Eq. 9 — the halo grows quadratically in the number of fused local
    kernels, which is why the paper stresses correct border handling. *)

type zone = Interior | Halo | Exterior

(** [classify ~width ~height ~radius x y] is the zone of coordinate
    [(x, y)] for a local operator of radius [radius >= 0].
    @raise Invalid_argument on negative radius or nonpositive extent. *)
val classify : width:int -> height:int -> radius:int -> int -> int -> zone

(** [interior_width ~image_width ~mask_width] is
    [image_width - floor(mask_width/2) * 2], clamped at 0. *)
val interior_width : image_width:int -> mask_width:int -> int

(** [fused_radius radii] is the effective radius of a chain of local
    kernels with the given radii: their sum. *)
val fused_radius : int list -> int

(** [interior_count ~width ~height ~radius] is the number of interior
    pixels. *)
val interior_count : width:int -> height:int -> radius:int -> int

(** [halo_count ~width ~height ~radius] is the number of halo pixels;
    [interior_count + halo_count = width * height]. *)
val halo_count : width:int -> height:int -> radius:int -> int

val zone_equal : zone -> zone -> bool
