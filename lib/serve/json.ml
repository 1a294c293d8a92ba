(* The codec lives in hwpat.obs; this alias keeps the [Hwpat_serve.Json]
   name that the end-to-end benchmark (bench/e2e) links against. *)
include Hwpat_obs.Json
