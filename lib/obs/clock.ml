external now_ns : unit -> int = "mdp_obs_now_ns" [@@noalloc]

let ns_to_s ns = float_of_int ns *. 1e-9
let elapsed_s t0 = ns_to_s (now_ns () - t0)

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, elapsed_s t0)
