type t = unit

let get ~domains:_ = ()
let set_default (_ : t option) = ()
