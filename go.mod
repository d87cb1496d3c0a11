module pervasivegrid

go 1.23
