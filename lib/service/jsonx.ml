(* The JSON codec lives in {!Kfuse_util.Jsonx}; the service names it
   here too, for its own modules and its clients. *)
include Kfuse_util.Jsonx
