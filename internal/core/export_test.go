package core

// CodesOut gives the external tests codesOut: codes paged, cells resident.
var CodesOut = codesOut
