(* How fast the host runs fixed work at a given moment, and time scaled
   to a fixed host speed.

   The 2-vCPU host the suite was calibrated on shares its memory system
   with other tenants and slows down in bursts of seconds to minutes:
   the same op takes up to 1.6 times as long in one run as in the next,
   and ten 20-second runs of one workload spread by up to 0.36 of their
   median. So every time the suite reports is normalised: it is
   multiplied by [nominal_ms] over the time the reference work below
   took, sampled just before and just after the timed code. The
   reference work calls nothing in the program, so a change to the
   program moves the normalised time exactly as it moves the wall time;
   a host slowdown moves both the wall time and the reference, and
   cancels. The raw wall times are kept alongside (README). *)

(* Short-lived allocation — pairs in lists that die on the minor heap —
   then hashing, boxed values that live a while, and a sort: the kind
   of work the program does, in about equal parts. A reference that
   only chased pointers through memory swung sixfold with the host's
   contention, and one that only computed in registers did not move;
   this one moves with the program. *)
let work () =
  let l = ref [] in
  for i = 1 to 600_000 do
    l := (i, i) :: (if i land 255 = 0 then [] else !l)
  done;
  ignore (Sys.opaque_identity !l);
  let h = Hashtbl.create 16 in
  for i = 0 to 4095 do
    Hashtbl.replace h (string_of_int (i * 7919)) (i, [ i ])
  done;
  let sizes = Hashtbl.fold (fun k (v, _) acc -> (String.length k + v) :: acc) h [] in
  ignore (Sys.opaque_identity (List.sort compare sizes))

(* The reference work's time when the host is quiet, on the host in
   [baseline.json]. Any constant would do; this one keeps normalised
   times close to the wall times of a quiet host. *)
let nominal_ms = 4.0

(* One sample: the median of five timings of [work], in ms. *)
let sample () =
  let t =
    Array.init 5 (fun _ ->
        let t0 = Util.now_ns () in
        work ();
        Util.ms_of_ns (Util.now_ns () - t0))
  in
  Array.sort Float.compare t;
  t.(2)

(* The factor that turns a wall time into time at nominal speed, from
   the samples taken around it. *)
let factor_of samples = nominal_ms /. Util.median samples
let factor ~before ~after = factor_of [ before; after ]

let warm () =
  for _ = 1 to 3 do
    ignore (sample ())
  done
