type mode = Off

let set_mode Off = ()
