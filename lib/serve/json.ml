(* The JSON codec is lib/obs/json.ml; [Ub_serve.Json] stays as an alias
   of it for the code that names it here. *)
include Ub_obs.Json
