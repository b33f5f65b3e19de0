let by_functor = 5
