let by_bin ?(l = 0) () = l
let unpassed ?(l = 0) () = l
let tested ?(l = 0) () = l
let forwarded ?(l = 0) () = l
let forwarder ?l () = forwarded ?l ()
let computed ?(l = 0) () = l
let by_helper ?(l = 0) () = l
let inside ?(l = 0) () = l
let inside_caller () = inside ~l:1 ()
let as_value ?(l = 0) () = l
let listed = [ ("listed", fun ?(l = 0) () -> l) ]
let kept ?(l = 0) () = l
let escaped ?(l = 0) () = l
