let packed = 6
