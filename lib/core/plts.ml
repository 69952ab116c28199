module State = struct
  type t = Config.t
end

include Mdp_lts.Lts.Make (State) (Action)
