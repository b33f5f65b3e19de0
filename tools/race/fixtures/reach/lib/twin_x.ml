let x_only = 7
